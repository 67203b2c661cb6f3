import pytest

from gnorm.graphs import BipartiteGraph, EdgeColouring, complete_bipartite, cycle
from gnorm.symmetry import _iso_maps


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


def coloured_isomorphic(g1: BipartiteGraph, a1: EdgeColouring,
                        g2: BipartiteGraph, a2: EdgeColouring) -> bool:
    """Does a colour-preserving isomorphism exist?  The coloured search of
    ``symmetry._iso_maps``, stopped at its first map."""
    return next(_iso_maps(g1, g2, True, (a1, a2), limit=1), None) is not None
