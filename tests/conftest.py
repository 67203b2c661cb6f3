import ast
import importlib.util
import math
from itertools import islice
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

import gnorm
from gnorm.graphs import (
    BipartiteGraph,
    EdgeColouring,
    check_aligned,
    complete_bipartite,
    cycle,
)
from gnorm.falsify import _SLACK, HatamiCheck
from gnorm.symmetry import _Search, _colour_action


@pytest.fixture
def c4():
    return cycle(4)


@pytest.fixture
def c6():
    return cycle(6)


@pytest.fixture
def alt4():
    return EdgeColouring((1, 0, 1, 0))


@pytest.fixture
def mono4():
    return EdgeColouring((1, 1, 1, 1))


@pytest.fixture
def k23():
    return complete_bipartite(2, 3)


def complement(a: EdgeColouring) -> EdgeColouring:
    """The colouring with every colour swapped (the conjugate colouring)."""
    return EdgeColouring(tuple(1 - c for c in a))


def small_bipartite(edge_mask: int, m: int = 3, n: int = 3) -> BipartiteGraph | None:
    """Subgraph of K_{m,n} given by an edge bitmask, or None if a chosen
    vertex would be isolated.  Shared generator for property tests."""
    pairs = [(f"a{i}", f"b{j}") for i in range(m) for j in range(n)]
    edges = [pairs[i] for i in range(len(pairs)) if edge_mask >> i & 1]
    if not edges:
        return None
    left = tuple(sorted({u for u, _ in edges}))
    right = tuple(sorted({v for _, v in edges}))
    return BipartiteGraph(left, right, tuple(edges))


def _haar(n: int, connection: tuple[int, ...]) -> BipartiteGraph:
    """The Haar graph H(Z_n, S): a_i ~ b_(i+s) for every s in S."""
    return BipartiteGraph(tuple(f"a{i}" for i in range(n)), tuple(f"b{j}" for j in range(n)),
                          tuple((f"a{i}", f"b{(i + s) % n}") for i in range(n) for s in connection))


def _graph_id(g: BipartiteGraph) -> str:
    return f"{len(g.left)}+{len(g.right)}v{g.n_edges}e"


def recursive_balanced_colourings(g: BipartiteGraph) -> Iterator[EdgeColouring]:
    """The balanced colourings as a recursive walk finds them, one nested
    generator per edge, 0 before 1, with residual per-vertex bounds: the
    reference for ``graphs.iter_balanced_colourings``, which walks the same
    tree on an explicit stack.  Its depth is one frame per edge."""
    # the edges still to colour at each vertex: at first, all of them
    remaining = list(g.degrees)
    if any(d % 2 for d in remaining):
        return
    half = [d // 2 for d in remaining]
    ends = g.ends
    ones = [0] * g.n_vertices
    m = g.n_edges
    colours = [0] * m

    def feasible(x: int) -> bool:
        return ones[x] <= half[x] and ones[x] + remaining[x] >= half[x]

    def rec(i: int) -> Iterator[EdgeColouring]:
        if i == m:
            yield EdgeColouring(tuple(colours))
            return
        u, v = ends[i]
        remaining[u] -= 1
        remaining[v] -= 1
        for c in (0, 1):
            ones[u] += c
            ones[v] += c
            colours[i] = c
            if feasible(u) and feasible(v):
                yield from rec(i + 1)
            ones[u] -= c
            ones[v] -= c
        remaining[u] += 1
        remaining[v] += 1

    yield from rec(0)


def broadcast_direct(g: BipartiteGraph, factors, dims) -> np.ndarray:
    """The direct route as it was before the batch moved last: the product
    tensor laid out (*batch, *dims), each factor broadcast over it in edge
    order from ones, and each row summed.  The reference for
    ``density._evaluate_direct``, which must give the same bits."""
    batch = factors[0].shape[:-2]
    k = len(batch)
    ones = [*batch] + [1] * g.n_vertices
    arr = np.ones((*batch, *dims), dtype=factors[0].dtype)
    for fac, (x, y) in zip(factors, g.ends):
        shape = ones.copy()
        shape[k + x] = dims[x]
        shape[k + y] = dims[y]
        arr *= fac.reshape(shape)
    return arr.reshape(*batch, -1).sum(axis=-1)


def scalar_verdict(mixed: float, singles: list[float]) -> HatamiCheck:
    """The decoration inequality's verdict on one row in Python floats, as
    ``HatamiCheck.verdict`` gave it before a chunk's rows became tuples: the
    reference for ``falsify._verdict`` and ``falsify._hatami_checks``, bit
    for bit."""
    e = len(singles)
    lhs = mixed ** e
    rhs = math.prod(singles)
    if mixed <= _SLACK:
        return HatamiCheck(True, math.inf, lhs, rhs)
    if any(s <= _SLACK for s in singles):
        return HatamiCheck(False, -math.inf, lhs, rhs)
    margin = 0.0
    for s in singles:
        margin += math.log(s)
    margin -= e * math.log(mixed)
    holds = lhs <= rhs * (1.0 + _SLACK) + _SLACK
    return HatamiCheck(holds, margin, lhs, rhs)


def path(n_edges: int) -> BipartiteGraph:
    """Path with n_edges edges; vertices alternate sides starting on the left."""
    verts = [f"{'a' if i % 2 == 0 else 'b'}{i // 2}" for i in range(n_edges + 1)]
    left = tuple(v for i, v in enumerate(verts) if i % 2 == 0)
    right = tuple(v for i, v in enumerate(verts) if i % 2 == 1)
    edges = []
    for i in range(n_edges):
        u, v = verts[i], verts[i + 1]
        edges.append((u, v) if i % 2 == 0 else (v, u))
    return BipartiteGraph(left, right, tuple(edges))


def disjoint_union(parts) -> tuple[BipartiteGraph, EdgeColouring]:
    """Side-respecting disjoint union of (graph, colouring) pairs; colour
    vectors concatenate in order.  Vertex ids are prefixed with the
    component index to keep them unique."""
    if not parts:
        raise ValueError("need at least one coloured graph")
    left, right, edges, colours = [], [], [], []
    for k, (g, a) in enumerate(parts):
        check_aligned(g, a)
        tag = f"{k}:"
        left.extend(tag + v for v in g.left)
        right.extend(tag + v for v in g.right)
        edges.extend((tag + u, tag + v) for u, v in g.edges)
        colours.extend(a.colours)
    return BipartiteGraph(tuple(left), tuple(right), tuple(edges)), EdgeColouring(tuple(colours))


def colouring_to_json(a: EdgeColouring) -> dict:
    """The colouring file format, ``{"colours": [0, 1, ...]}``."""
    return {"colours": list(a.colours)}


def _iso_maps(g1: BipartiteGraph, g2: BipartiteGraph, side_swap: bool,
              edge_colour_pair: tuple[EdgeColouring, EdgeColouring] | None = None,
              limit: int | None = None):
    """The depth-first walk of ``symmetry._Search``: every vertex map (index
    form) carrying g1 onto g2, at most ``limit`` of them, in increasing order
    of the images along the search's ``vorder``."""
    search = _Search(g1, g2, side_swap, edge_colour_pair)
    if search.feasible:
        yield from islice(search.maps(), limit)


def coloured_isomorphic(g1: BipartiteGraph, a1: EdgeColouring,
                        g2: BipartiteGraph, a2: EdgeColouring) -> bool:
    """Does a colour-preserving isomorphism exist?  The coloured walk
    ``_iso_maps``, stopped at its first map."""
    return next(_iso_maps(g1, g2, True, (a1, a2), limit=1), None) is not None


def _arc_transitive(perms, colours) -> bool:
    """The colour-1 half of ``symmetry._transitive_under``: do the
    colour-preserving rows of a whole group's edge table act transitively on
    the colour-1 edges (the arcs, for a colouring from a tournament)?  The
    preserving rows form a group, so the first arc's images are its orbit."""
    preserving, _ = _colour_action(perms, colours)
    arcs = np.flatnonzero(np.asarray(colours, dtype=np.int8) == 1)
    return not arcs.size or len(set(perms[preserving, arcs[0]].tolist())) == arcs.size


def kernel_json(values) -> dict:
    """The kernel file format of a grid of [re, im] entries."""
    return {"cols": len(values[0]), "rows": len(values), "values": values}


# Golden values: the 3x3 phase kernel (cube roots of unity), as [re, im]
# entries, that a triangle falsifier records for a colouring its trial 0
# finds unbalanced on a graph of maximum degree 2, and its conjugate.
PHASE_3 = [[[1.0, 0.0], [-0.4999999999999998, 0.8660254037844387],
            [-0.5000000000000003, -0.8660254037844384]],
           [[-0.4999999999999998, 0.8660254037844387], [-0.5000000000000003, -0.8660254037844384],
            [0.9999999999999998, -6.106226635438361e-16]],
           [[-0.5000000000000003, -0.8660254037844384], [0.9999999999999998, -6.106226635438361e-16],
            [-0.4999999999999992, 0.8660254037844389]]]
PHASE_3_CONJ = [[[re, -im] for re, im in row] for row in PHASE_3]


GOLDEN = Path(__file__).resolve().parent / "golden"


def regenerate():
    """``tests/golden/regenerate.py``, which writes each golden file."""
    spec = importlib.util.spec_from_file_location("regenerate", GOLDEN / "regenerate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PACKAGE = Path(gnorm.__file__).resolve().parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def package_sources() -> dict[str, str]:
    """The source of each module of the package, by module name
    (``__init__`` for the package itself).  The package audits in
    ``test_annotations.py``, ``test_config.py`` and ``test_reachability.py``
    read it."""
    return {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}


def definitions(tree: ast.AST, prefix: str = ""):
    """(qualified name, node) for every function and class in a parsed
    module, at any depth, named as ``__qualname__`` names them: a method is
    ``Class.method`` and a function nested in ``outer`` is
    ``outer.<locals>.inner``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, _DEFS):
            qualname = prefix + node.name
            yield qualname, node
            yield from definitions(node, qualname + (
                "." if isinstance(node, ast.ClassDef) else ".<locals>."))
        else:
            yield from definitions(node, prefix)
