"""Uniform hypergraphs: links, self-complementarity, edge-transitivity,
codegrees."""

import random
from itertools import combinations, permutations

import pytest

from gnorm.errors import CapExceeded, UnknownVertex
from gnorm.graphs import EdgeColouring
from gnorm.constructions import set_inclusion_graph
from gnorm.hypergraphs import (
    UniformHypergraph,
    hypergraph_automorphisms,
    hypergraph_is_edge_transitive,
    hypergraph_is_self_complementary,
    link_hypergraph,
)


def pentagon() -> UniformHypergraph:
    return UniformHypergraph(
        tuple(range(5)), 2, frozenset(frozenset((i, (i + 1) % 5)) for i in range(5))
    )


def four_path() -> UniformHypergraph:
    return UniformHypergraph(
        (0, 1, 2, 3), 2,
        frozenset([frozenset((0, 1)), frozenset((1, 2)), frozenset((2, 3))]),
    )


class TestClassics:
    def test_pentagon(self):
        h = pentagon()
        assert hypergraph_is_self_complementary(h)
        assert hypergraph_is_edge_transitive(h)
        assert len(hypergraph_automorphisms(h)) == 10  # dihedral group

    def test_path(self):
        h = four_path()
        assert hypergraph_is_self_complementary(h)
        assert not hypergraph_is_edge_transitive(h)

    def test_cyclic_triples(self):
        # complement-of-edge dual of the pentagon, a 3-graph on 5 vertices
        h = UniformHypergraph(
            tuple(range(5)), 3,
            frozenset(frozenset((i, (i + 1) % 5, (i + 2) % 5)) for i in range(5)),
        )
        assert hypergraph_is_self_complementary(h)
        assert hypergraph_is_edge_transitive(h)

    def test_edge_count_parity_shortcut(self):
        # wrong edge count can never be self-complementary
        h = UniformHypergraph((0, 1, 2, 3), 2, frozenset([frozenset((0, 1))]))
        assert not hypergraph_is_self_complementary(h)

    def test_cap(self):
        h = UniformHypergraph(tuple(range(13)), 2, frozenset([frozenset((0, 1))]))
        with pytest.raises(CapExceeded):
            hypergraph_is_self_complementary(h)


class TestComplement:
    def test_involution(self):
        h = pentagon()
        assert h.complement().complement() == h
        assert len(h.complement().edges) == 5


class TestLink:
    def test_extreme_colourings(self):
        g = set_inclusion_graph(5, 4, 2)
        top = g.left[0]
        ones = EdgeColouring((1,) * g.n_edges)
        zeros = EdgeColouring((0,) * g.n_edges)
        assert len(link_hypergraph(g, ones, top).edges) == 6
        assert len(link_hypergraph(g, zeros, top).edges) == 0

    def test_left_balance_forces_half(self):
        # colour half the edges at each left vertex 1 (the graph itself has
        # odd right degrees, so no globally balanced colouring exists)
        g = set_inclusion_graph(5, 4, 2)
        colours = [0] * g.n_edges
        for v in g.left:
            inc = g.incident_edges[v]
            for i in inc[: len(inc) // 2]:
                colours[i] = 1
        a = EdgeColouring(tuple(colours))
        for v in g.left:
            link = link_hypergraph(g, a, v)
            assert len(link.edges) == 3  # half of C(4, 2)

    def test_unknown_vertex(self):
        g = set_inclusion_graph(4, 2, 1)
        with pytest.raises(UnknownVertex):
            link_hypergraph(g, EdgeColouring((1,) * g.n_edges), "9,9")


# -- brute-force oracle ----------------------------------------------------------


def brute_automorphisms(h: UniformHypergraph) -> list[dict[int, int]]:
    """Every vertex permutation that maps the edge set onto itself."""
    verts = list(h.vertices)
    out = []
    for perm in permutations(verts):
        phi = dict(zip(verts, perm))
        if {frozenset(phi[v] for v in e) for e in h.edges} == h.edges:
            out.append(phi)
    return out


def brute_self_complementary(h: UniformHypergraph) -> bool:
    target = h.complement().edges
    verts = list(h.vertices)
    return any(
        {frozenset(phi[v] for v in e) for e in h.edges} == target
        for phi in (dict(zip(verts, perm)) for perm in permutations(verts))
    )


def brute_edge_transitive(h: UniformHypergraph) -> bool:
    if not h.edges:
        return True
    first = min(h.edges, key=sorted)
    orbit = {frozenset(phi[v] for v in first) for phi in brute_automorphisms(h)}
    return len(orbit) == len(h.edges)


def random_hypergraphs(count: int, seed: int) -> list[UniformHypergraph]:
    """Seeded r-graphs with n <= 6 and r <= 3 on shuffled integer labels:
    random edge sets of every density (so isolated vertices occur), plus
    the empty and the complete edge set and r = n for each size."""
    rng = random.Random(seed)
    out = []
    for n in range(1, 7):
        labels = rng.sample(range(20), n)
        for r in sorted({1, min(3, n), n}):
            every = [frozenset(c) for c in combinations(labels, r)]
            out += [UniformHypergraph(tuple(labels), r, frozenset()),
                    UniformHypergraph(tuple(labels), r, frozenset(every))]
    while len(out) < count:
        n = rng.randint(1, 6)
        r = rng.randint(1, min(3, n))
        labels = rng.sample(range(20), n)
        every = [frozenset(c) for c in combinations(labels, r)]
        density = rng.random()
        edges = frozenset(e for e in every if rng.random() < density)
        out.append(UniformHypergraph(tuple(labels), r, edges))
    return out


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_hypergraphs(self, seed):
        for h in random_hypergraphs(50, seed):
            autos = hypergraph_automorphisms(h)
            want = brute_automorphisms(h)
            as_set = {frozenset(a.items()) for a in autos}
            assert len(as_set) == len(autos) == len(want), h
            assert as_set == {frozenset(a.items()) for a in want}, h
            assert hypergraph_is_self_complementary(h) == brute_self_complementary(h), h
            assert hypergraph_is_edge_transitive(h) == brute_edge_transitive(h), h
