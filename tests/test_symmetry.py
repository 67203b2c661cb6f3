"""Automorphism search against brute-force oracles, colouring symmetry."""

import ast
import sys
from itertools import permutations
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnorm import symmetry
from gnorm.config import RunConfig
from gnorm.errors import CapExceeded, VerificationFailed
from gnorm.graphs import (
    BipartiteGraph,
    EdgeColouring,
    complete_bipartite,
    cycle,
    is_balanced,
    iter_balanced_colourings,
    star,
)
from gnorm.symmetry import (
    _Search,
    _all_automorphisms,
    _colour_action,
    _edge_table,
    _orbit_mask,
    _transitive_under,
    _transversals,
    automorphisms,
    isomorphic,
)
from gnorm.constructions import (
    bipartite_kneser,
    hypercube,
    hypercube_alpha,
    set_inclusion_graph,
    subdivided_complete,
)

from conftest import (
    _graph_id,
    _haar,
    _iso_maps,
    coloured_isomorphic,
    complement,
    disjoint_union,
    package_sources,
    path,
)


def brute_automorphism_count(g: BipartiteGraph, side_preserving: bool = False) -> int:
    """All vertex bijections preserving the edge set (as unordered pairs)."""
    verts = list(g.vertices)
    edge_set = {frozenset(e) for e in g.edges}
    count = 0
    nleft = len(g.left)
    for perm in permutations(verts):
        phi = dict(zip(verts, perm))
        if side_preserving and any(
            (v in g.left) != (phi[v] in g.left) for v in verts
        ):
            continue
        if {frozenset((phi[u], phi[v])) for u, v in g.edges} == edge_set:
            count += 1
    return count


def edge_permutation(g: BipartiteGraph, images) -> tuple[int, ...]:
    """Oracle: the edge-index permutation that a vertex map, given as image
    indices over ``g.vertices``, induces, one edge lookup at a time."""
    vidx, verts = g.vertex_index, g.vertices
    eidx = {e: i for i, e in enumerate(g.edges)}
    perm = []
    for u, v in g.edges:
        a, b = verts[images[vidx[u]]], verts[images[vidx[v]]]
        perm.append(eidx[(a, b)] if (a, b) in eidx else eidx[(b, a)])
    return tuple(perm)


def orbit_size(maps) -> int:
    """Oracle: the size of point 0's orbit, by closure under every map."""
    seen, stack = {0}, [0]
    while stack:
        x = stack.pop()
        for p in maps:
            if p[x] not in seen:
                seen.add(p[x])
                stack.append(p[x])
    return len(seen)


class TestAutomorphisms:
    def test_c4_dihedral(self, c4):
        rep = automorphisms(c4)
        assert rep.group_order == 8 == brute_automorphism_count(c4)
        assert rep.edge_transitive and rep.vertex_transitive

    def test_c6_side_preserving(self, c6):
        rep = automorphisms(c6, config=RunConfig(side_swap=False))
        assert rep.group_order == 6 == brute_automorphism_count(c6, side_preserving=True)

    def test_k23_no_swap_possible(self, k23):
        rep = automorphisms(k23)
        assert rep.group_order == 12 == brute_automorphism_count(k23)

    def test_disconnected_per_component_flips(self):
        # two disjoint edges: each edge may flip independently and the edges
        # may swap, giving 2 * 2 * 2 = 8 usual-graph automorphisms
        g = BipartiteGraph(("a0", "a1"), ("b0", "b1"), (("a0", "b0"), ("a1", "b1")))
        rep = automorphisms(g)
        assert rep.group_order == 8 == brute_automorphism_count(g)

    def test_edge_permutation_is_permutation(self, c6):
        group = _all_automorphisms(c6, RunConfig())
        assert len(group) == 12
        for images in group.tolist():
            assert sorted(edge_permutation(c6, images)) == list(range(c6.n_edges))

    def test_edge_table_across_row_blocks(self):
        # H(7,3)'s table has 10080 x 140 entries, more than one block of the
        # gather, so rows on both sides of a block boundary are checked
        g = bipartite_kneser(7, 3)
        group = _all_automorphisms(g, RunConfig(cap_vertices=80))
        assert len(group) * g.n_edges > 1 << 20
        table = _edge_table(g, group)
        assert table.dtype == np.intp
        assert table.tolist() == [list(edge_permutation(g, images))
                                  for images in group.tolist()]

    def test_vertex_cap(self, c4):
        with pytest.raises(CapExceeded):
            automorphisms(c4, config=RunConfig(cap_vertices=2))


class TestGroupOrders:
    @pytest.mark.parametrize("k", [3, 4])
    def test_set_inclusion_graph(self, k):
        # S_6 acting on the ground set; no map exchanges the sides
        assert automorphisms(set_inclusion_graph(6, k, 1)).group_order == 720

    def test_bipartite_kneser_h73(self):
        # S_7 acting on the ground set, and complementation exchanging the sides
        rep = automorphisms(bipartite_kneser(7, 3), config=RunConfig(cap_vertices=80))
        assert rep.group_order == 10080
        assert rep.edge_transitive and rep.vertex_transitive

    @pytest.mark.parametrize("d, order", [(5, 3840), (6, 46080)])
    def test_hypercube(self, d, order):
        # the hyperoctahedral group: 2^d translations times d! coordinate orders
        rep = automorphisms(hypercube(d), config=RunConfig(cap_vertices=64))
        assert rep.group_order == order
        assert rep.edge_transitive and rep.vertex_transitive


class TestEdgeTransitivity:
    def test_examples(self):
        assert automorphisms(hypercube(3)).edge_transitive
        assert not automorphisms(path(4)).edge_transitive
        assert automorphisms(set_inclusion_graph(4, 2, 1)).edge_transitive


class TestIsomorphism:
    def test_oriented_vs_usual_star(self):
        left_star = star(2)
        right_star = BipartiteGraph(("a0", "a1"), ("c",), (("a0", "c"), ("a1", "c")))
        assert isomorphic(left_star, right_star)
        assert not isomorphic(left_star, right_star, RunConfig(side_swap=False))

    def test_different_counts_answer_before_the_vertex_cap(self):
        # C_200 is over the default cap of 64 vertices, but no map can carry
        # C_4 onto it, nor a path onto a cycle of as many vertices, nor C_100
        # onto a graph of as many vertices and edges with other degrees;
        # equal degrees over the cap still raise
        assert not isomorphic(cycle(4), cycle(200))
        assert not isomorphic(cycle(200), cycle(4))
        assert not isomorphic(path(99), cycle(100))
        mixed, _ = disjoint_union([(g, EdgeColouring((0,) * g.n_edges)) for g in
                                   (cycle(88), complete_bipartite(2, 4), path(2), path(2))])
        assert (mixed.n_vertices, mixed.n_edges) == (100, 100)
        assert not isomorphic(cycle(100), mixed)
        with pytest.raises(CapExceeded):
            isomorphic(cycle(200), cycle(200))

    def test_inclusion_duality(self):
        # I(n, k, r) and I(n, n-r, n-k) agree as usual graphs
        for n, k, r in ((4, 3, 1), (5, 3, 2), (5, 4, 2)):
            assert isomorphic(
                set_inclusion_graph(n, k, r),
                set_inclusion_graph(n, n - r, n - k),
            )


def brute_coloured_isomorphic(g1, a1, g2, a2) -> bool:
    verts1, verts2 = list(g1.vertices), list(g2.vertices)
    if len(verts1) != len(verts2):
        return False
    col1 = {frozenset(e): a1[i] for i, e in enumerate(g1.edges)}
    col2 = {frozenset(e): a2[i] for i, e in enumerate(g2.edges)}
    for perm in permutations(verts2):
        phi = dict(zip(verts1, perm))
        image = {frozenset((phi[u], phi[v])): c for (u, v), c in
                 ((e, col1[frozenset(e)]) for e in g1.edges)}
        if image == col2:
            return True
    return False


class TestColouredIsomorphism:
    def test_rotation_conjugates(self, c4, alt4):
        assert coloured_isomorphic(c4, alt4, c4, complement(alt4))

    def test_adjacent_pair_differs(self, c4, alt4):
        assert not coloured_isomorphic(c4, alt4, c4, EdgeColouring((1, 1, 0, 0)))

    def test_against_brute_force(self, c4):
        for bits1 in range(16):
            a1 = EdgeColouring(tuple(bits1 >> i & 1 for i in range(4)))
            for bits2 in range(16):
                a2 = EdgeColouring(tuple(bits2 >> i & 1 for i in range(4)))
                assert coloured_isomorphic(c4, a1, c4, a2) == \
                    brute_coloured_isomorphic(c4, a1, c4, a2)

    def test_axis_colouring_conjugation_symmetric(self):
        q4 = hypercube(4)
        a4 = hypercube_alpha(4)
        assert coloured_isomorphic(q4, a4, q4, complement(a4))

    @given(bits=st.tuples(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15)))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_relation_on_square_colourings(self, bits):
        g = cycle(4)
        cols = [EdgeColouring(tuple(b >> i & 1 for i in range(4))) for b in bits]
        a, b, c = cols
        assert coloured_isomorphic(g, a, g, a)
        if coloured_isomorphic(g, a, g, b):
            assert coloured_isomorphic(g, b, g, a)
            if coloured_isomorphic(g, b, g, c):
                assert coloured_isomorphic(g, a, g, c)


def first_transitive_colouring(g: BipartiteGraph):
    """The first balanced colouring, in enumeration order, that is transitive
    under one edge table of Aut(g), or None."""
    table = _edge_table(g, _all_automorphisms(g, RunConfig()))
    return next((a for a in iter_balanced_colourings(g) if _transitive_under(table, a.colours)),
                None)


class TestExistsTransitive:
    def test_c6_present(self, c6):
        assert first_transitive_colouring(c6).colours == (0, 1, 0, 1, 0, 1)

    def test_star_absent(self):
        assert first_transitive_colouring(star(3)) is None

    def test_q4_present(self):
        q4 = hypercube(4)
        found = first_transitive_colouring(q4)
        assert found is not None
        perms = [edge_permutation(q4, images)
                 for images in _all_automorphisms(q4, RunConfig()).tolist()]
        assert is_balanced(q4, found) and _literal_transitive(found, perms)

    def test_present_implies_edge_transitive(self):
        for g in (cycle(4), cycle(6), hypercube(4), set_inclusion_graph(4, 2, 1)):
            if first_transitive_colouring(g) is not None:
                assert automorphisms(g).edge_transitive


class TestAdmissibilityLink:
    def test_inadmissible_small_kneser_has_no_transitive_colouring(self):
        # for every parameter pair small enough to search exhaustively
        from gnorm.arithmetic import _class_a_case
        from gnorm.constructions import bipartite_kneser
        for n in range(3, 8):
            for r in range(1, (n - 1) // 2 + 1):
                if n - r <= r:
                    continue
                g = bipartite_kneser(n, r)
                if g.n_edges > 32 or g.n_vertices > 30:
                    continue
                if _class_a_case(n - r, r) is None:
                    assert first_transitive_colouring(g) is None, (n, r)


def _literal_transitive(a: EdgeColouring, perms) -> bool:
    """Every ordered same-colour edge pair is linked by a colour-preserving
    edge permutation, every opposite-colour pair by a colour-reversing one,
    and a colour-reversing one exists."""
    m = len(a)
    same = {(i, p[i]) for p in perms if all(a[p[k]] == a[k] for k in range(m))
            for i in range(m)}
    flip = {(i, p[i]) for p in perms if all(a[p[k]] != a[k] for k in range(m))
            for i in range(m)}
    return bool(flip) and all((i, j) in (same if a[i] == a[j] else flip)
                              for i in range(m) for j in range(m))


def _random_k34_subgraphs(count: int, seed: int, even: bool = False) -> list[BipartiteGraph]:
    """Seeded random subgraphs of K_{3,4}; with ``even`` only those whose
    degrees are all even, which is where transitive colourings live."""
    import random
    from conftest import small_bipartite
    rng = random.Random(seed)
    graphs: list[BipartiteGraph] = []
    while len(graphs) < count:
        g = small_bipartite(rng.randrange(1, 2 ** 12), 3, 4)
        if g is not None and not (even and any(d % 2 for d in g.degrees)):
            graphs.append(g)
    return graphs


class TestTransitivityLiteralDefinition:
    def test_matches_pairwise_definition_on_all_square_colourings(self):
        # literal check: every ordered same-colour edge pair is linked by a
        # colour-preserving automorphism, every opposite-colour pair by a
        # colour-reversing one
        # against what ``gnorm check`` reports: balanced, and transitive
        # under the edge table of the whole group
        from gnorm.config import DEFAULT
        for length in (4, 6):
            g = cycle(length)
            group = _all_automorphisms(g, DEFAULT)
            table = _edge_table(g, group)
            perms = [edge_permutation(g, images) for images in group.tolist()]
            for bits in range(2 ** length):
                a = EdgeColouring(tuple(bits >> i & 1 for i in range(length)))
                preserving = [p for p in perms
                              if all(a[p[i]] == a[i] for i in range(length))]
                reversing = [p for p in perms
                             if all(a[p[i]] == 1 - a[i] for i in range(length))]
                literal = is_balanced(g, a)
                for i in range(length):
                    if not literal:
                        break
                    for j in range(length):
                        pool = preserving if a[i] == a[j] else reversing
                        if not any(p[i] == j for p in pool):
                            literal = False
                            break
                checked = is_balanced(g, a) and _transitive_under(table, a.colours)
                assert checked == literal, a.colours

    @pytest.mark.parametrize("graph", [
        complete_bipartite(2, 4), complete_bipartite(3, 3), hypercube(3),
        complete_bipartite(4, 4), *_random_k34_subgraphs(8, seed=11),
        *_random_k34_subgraphs(4, seed=11, even=True),
    ], ids=lambda g: f"{len(g.left)}+{len(g.right)}v{g.n_edges}e")
    def test_edge_table_matches_pairwise_definition(self, graph):
        # the edge-table kernel against the pairwise definition over the
        # per-automorphism edge permutations: every colouring up to 12
        # edges, the balanced ones above
        from gnorm.config import DEFAULT
        group = _all_automorphisms(graph, DEFAULT)
        perms = [edge_permutation(graph, images) for images in group.tolist()]
        table = _edge_table(graph, group)
        assert table.tolist() == [list(p) for p in perms]
        m = graph.n_edges
        if m <= 12:
            colourings = [EdgeColouring(tuple(bits >> i & 1 for i in range(m)))
                          for bits in range(2 ** m)]
        else:
            colourings = list(iter_balanced_colourings(graph))
        for a in colourings:
            literal = _literal_transitive(a, perms)
            assert _transitive_under(table, a.colours) == literal, a.colours

    @pytest.mark.parametrize("graph", [
        cycle(6), complete_bipartite(2, 4), *_random_k34_subgraphs(6, seed=12),
    ], ids=lambda g: f"{len(g.left)}+{len(g.right)}v{g.n_edges}e")
    def test_report_and_colour_action_match_permutation_loop(self, graph):
        # orbits by closure under every automorphism's permutation; the
        # colour-preserving and colour-reversing rows, from which ``gnorm
        # check`` reads self-conjugacy, one permutation at a time
        from gnorm.config import DEFAULT

        group = _all_automorphisms(graph, DEFAULT)
        table = _edge_table(graph, group)
        perms = [edge_permutation(graph, images) for images in group.tolist()]
        report = automorphisms(graph)
        assert report.edge_transitive == (orbit_size(perms) == graph.n_edges)
        assert report.vertex_transitive == (orbit_size(group.tolist()) == graph.n_vertices)
        m = graph.n_edges
        for bits in range(2 ** m):
            a = EdgeColouring(tuple(bits >> i & 1 for i in range(m)))
            preserving, reversing = _colour_action(table, a.colours)
            assert preserving.tolist() == [all(a[p[i]] == a[i] for i in range(m))
                                           for p in perms]
            assert reversing.tolist() == [all(a[p[i]] != a[i] for i in range(m))
                                          for p in perms]

    @pytest.mark.parametrize("graph, order", [
        (hypercube(5), 3840), (subdivided_complete(5), 120),
    ], ids=["Q5", "subdivided-K5"])
    def test_report_matches_orbit_closure(self, graph, order):
        # the report's two orbits against closure under every element's
        # vertex and edge permutation, on groups too large for the
        # colouring loop above
        group = _all_automorphisms(graph, RunConfig()).tolist()
        perms = [edge_permutation(graph, images) for images in group]
        report = automorphisms(graph)
        assert report.group_order == len(group) == order
        assert report.edge_transitive == (orbit_size(perms) == graph.n_edges)
        assert report.vertex_transitive == (orbit_size(group) == graph.n_vertices)


class TestAutomorphismFuzz:
    def test_group_order_matches_brute_force_on_random_graphs(self):
        # exhaustive oracle over all vertex bijections, graphs up to 7
        # vertices drawn from subgraphs of K_{3,3} and K_{2,4}
        import random
        rng = random.Random(314)
        cases = 0
        for _ in range(60):
            m, n = rng.choice(((3, 3), (2, 4), (3, 2)))
            pairs = [(f"a{i}", f"b{j}") for i in range(m) for j in range(n)]
            edges = [p for p in pairs if rng.random() < 0.55]
            if not edges:
                continue
            left = tuple(sorted({u for u, _ in edges}))
            right = tuple(sorted({v for _, v in edges}))
            g = BipartiteGraph(left, right, tuple(edges))
            for swap in (True, False):
                want = brute_automorphism_count(g, side_preserving=not swap)
                got = automorphisms(g, RunConfig(side_swap=swap)).group_order
                assert got == want, (edges, swap, got, want)
            cases += 1
        assert cases >= 40

    @pytest.mark.parametrize("swap", (True, False))
    def test_isomorphism_matches_brute_force_on_random_pairs(self, swap):
        # every map _iso_maps yields, against all vertex bijections; half the
        # second graphs are relabelled copies of the first, with the sides
        # exchanged at random, so that most pairs have maps to compare
        import random
        rng = random.Random(2718)

        def random_graph():
            m, n = rng.choice(((3, 3), (2, 4), (4, 2)))
            pairs = [(f"a{i}", f"b{j}") for i in range(m) for j in range(n)]
            edges = [p for p in pairs if rng.random() < 0.5]
            if not edges:
                return None
            return BipartiteGraph(
                tuple(sorted({u for u, _ in edges})),
                tuple(sorted({v for _, v in edges})),
                tuple(edges),
            )

        def relabelled(g):
            names = dict(zip(g.vertices, rng.sample(range(20), g.n_vertices)))
            edges = [(f"v{names[u]}", f"v{names[v]}") for u, v in g.edges]
            left, right = (tuple(f"v{names[v]}" for v in side) for side in (g.left, g.right))
            if rng.random() < 0.5:
                left, right, edges = right, left, [(v, u) for u, v in edges]
            rng.shuffle(edges)
            return BipartiteGraph(left, right, tuple(edges))

        def brute_maps(g1, g2):
            """Every edge-preserving bijection g1 -> g2, as image indices into
            g2.vertices; with swap off each side goes onto the same side."""
            if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
                return set()
            e2 = {frozenset(e) for e in g2.edges}
            out = set()
            for p in permutations(g2.vertices):
                phi = dict(zip(g1.vertices, p))
                if not swap and any((v in g1.left) != (phi[v] in g2.left)
                                    for v in g1.vertices):
                    continue
                if {frozenset((phi[u], phi[v])) for u, v in g1.edges} == e2:
                    out.add(tuple(g2.vertex_index[phi[v]] for v in g1.vertices))
            return out

        checked = with_maps = 0
        while checked < 60:
            g1 = random_graph()
            g2 = random_graph() if checked % 2 else g1 and relabelled(g1)
            if g1 is None or g2 is None:
                continue
            want = brute_maps(g1, g2)
            got = list(_iso_maps(g1, g2, swap))
            assert len(got) == len(want), (g1.edges, g2.edges)
            assert set(got) == want, (g1.edges, g2.edges)
            assert isomorphic(g1, g2, RunConfig(side_swap=swap)) == bool(want)
            checked += 1
            with_maps += bool(want)
        assert with_maps >= 20


def _even_k44_subgraphs(count: int, seed: int) -> list[BipartiteGraph]:
    """Seeded even-degree subgraphs of K_{4,4}: sums mod 2 of a few random
    4-cycles, with the vertices they miss left out."""
    import random
    rng = random.Random(seed)
    graphs: list[BipartiteGraph] = []
    while len(graphs) < count:
        edges: set[tuple[str, str]] = set()
        for _ in range(rng.randint(1, 5)):
            a, b = rng.sample(range(4), 2)
            c, d = rng.sample(range(4), 2)
            edges ^= {(f"a{x}", f"b{y}") for x in (a, b) for y in (c, d)}
        if edges:
            graphs.append(BipartiteGraph(tuple(sorted({u for u, _ in edges})),
                                         tuple(sorted({v for _, v in edges})),
                                         tuple(sorted(edges))))
    return graphs


def _union(*parts: BipartiteGraph) -> BipartiteGraph:
    return disjoint_union([(g, EdgeColouring((0,) * g.n_edges)) for g in parts])[0]


class TestStabiliserChain:
    """The group built from one transversal per level of the stabiliser chain
    equals the depth-first walk over every leaf of the search tree, as a set
    of rows, each element once; each transversal is laid out as documented,
    and the orbit pruning spares most of the searches."""

    GRAPHS = [
        hypercube(3), hypercube(4), complete_bipartite(2, 4),
        complete_bipartite(4, 4), complete_bipartite(2, 6),
        cycle(4), cycle(6), cycle(8), cycle(10),
        _union(cycle(4), cycle(4)), _union(cycle(4), cycle(6)),
        subdivided_complete(5), bipartite_kneser(6, 2),
        _haar(13, (0, 1, 3, 9)), _haar(7, (0, 1, 2, 4)),
        *_even_k44_subgraphs(10, seed=10), BipartiteGraph((), (), ()),
    ]

    @pytest.mark.parametrize("side_swap", [True, False])
    @pytest.mark.parametrize("graph", GRAPHS, ids=_graph_id)
    def test_equals_the_depth_first_walk(self, graph, side_swap):
        group = _all_automorphisms(graph, RunConfig(side_swap=side_swap))
        assert group.dtype == np.int32
        rows = sorted(map(tuple, group.tolist()))
        assert len(set(rows)) == len(rows)
        assert rows == sorted(_iso_maps(graph, graph, side_swap))

    @pytest.mark.parametrize("side_swap", [True, False])
    @pytest.mark.parametrize("graph", GRAPHS, ids=_graph_id)
    def test_each_level_is_laid_out_as_documented(self, graph, side_swap):
        # level i: the identity first, then rows that fix vorder[:i] and send
        # v = vorder[i] elsewhere, in increasing order of that image
        levels = _transversals(graph, side_swap)
        vorder = _Search(graph, graph, side_swap).vorder
        assert len(levels) == len(vorder)
        identity = list(range(graph.n_vertices))
        for i, (v, t) in enumerate(zip(vorder, levels)):
            assert t.dtype == np.int32 and t.shape[1] == graph.n_vertices
            assert t[0].tolist() == identity
            assert (t[:, vorder[:i]] == vorder[:i]).all()
            images = t[1:, v].tolist()
            assert v not in images and images == sorted(set(images))

    @pytest.mark.parametrize("graph, before", [
        (hypercube(6), 78), (bipartite_kneser(6, 2), 44),
        (bipartite_kneser(7, 3), 87), (_haar(31, (0, 1, 3, 8, 12, 18)), 87),
    ], ids=["Q6", "H(6,2)", "H(7,3)", "PG(2,5)"])
    def test_orbit_pruning_halves_the_searches(self, graph, before, monkeypatch):
        # ``before``: the calls of a walk that searched every candidate image
        calls = []
        first = _Search.first
        monkeypatch.setattr(_Search, "first", lambda self, i: calls.append(i) or first(self, i))
        _transversals(graph, True)
        assert 0 < len(calls) < before / 2

    def test_pg25_order_from_the_transversal_sizes(self):
        # PG(2,5)'s incidence graph: |PGammaL(3,5)| = 372000, doubled by
        # duality; read from the sizes alone, as the group itself would be
        # 744000 rows of 62 int32 images, about 184 MB
        levels = _transversals(_haar(31, (0, 1, 3, 8, 12, 18)), True)
        assert prod(len(t) for t in levels) == 744000

    @pytest.mark.parametrize("m, order", [(6, 2 * 720 ** 2), (8, 2 * 40320 ** 2)])
    def test_group_cap_reports_the_exact_order(self, m, order):
        # raised from the transversal sizes, before any element is formed
        with pytest.raises(CapExceeded) as exc:
            _all_automorphisms(complete_bipartite(m, m), RunConfig())
        assert exc.value.needed == order
        assert f"needs {order}, cap is 1000000" in str(exc.value)

    @pytest.mark.parametrize("graph, side_swap, order", [
        (bipartite_kneser(7, 3), True, 10080),
        (hypercube(6), True, 46080),
    ], ids=["H(7,3)", "Q6"])
    def test_transversals_generate_a_group_of_their_product_order(
            self, graph, side_swap, order):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        levels = _transversals(graph, side_swap)
        assert prod(len(t) for t in levels) == order
        gens = [combinatorics.Permutation(row) for t in levels for row in t[1:].tolist()]
        assert combinatorics.PermutationGroup(gens).order() == order

    def test_the_walk_is_not_bounded_by_the_recursion_limit(self):
        # the search places C_300's vertices one level each; with the limit
        # a little above this test's own depth, a walk that recursed once per
        # level would raise RecursionError
        g, config = cycle(300), RunConfig(cap_vertices=300)
        want = automorphisms(g, config), isomorphic(g, g, config)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            got = automorphisms(g, config), isomorphic(g, g, config)
        finally:
            sys.setrecursionlimit(limit)
        assert got == want and want[0].group_order == 600


def _mask_inputs(graph: BipartiteGraph, side_swap: bool, config: RunConfig = RunConfig()):
    """The balanced-colouring matrix, the whole group's edge table and the
    config that gives the group."""
    rows = [c.colours for c in iter_balanced_colourings(graph, config)]
    matrix = np.array(rows, dtype=np.int8).reshape(len(rows), graph.n_edges)
    config = config.with_(side_swap=side_swap)
    return matrix, _edge_table(graph, _all_automorphisms(graph, config)), config


_MASK_GRAPHS = [
    complete_bipartite(2, 4), complete_bipartite(3, 3), hypercube(3),
    complete_bipartite(4, 4), *_random_k34_subgraphs(8, seed=11),
    *_random_k34_subgraphs(4, seed=11, even=True),
    hypercube(4), cycle(4), cycle(6), cycle(8), cycle(10), subdivided_complete(5),
    _haar(6, (0, 1, 3, 4)), _haar(8, (0, 1, 4, 5)), _haar(7, (0, 1, 2, 4)),
    _haar(5, (0, 1, 2, 3)),
]


class TestTransitiveMask:
    """The orbit filter gives each balanced colouring the per-colouring
    verdict, and its orbit labels are the orbits of the group and
    conjugation."""

    @pytest.mark.parametrize("side_swap", [True, False])
    @pytest.mark.parametrize("graph", _MASK_GRAPHS, ids=_graph_id)
    def test_equals_the_per_colouring_check(self, graph, side_swap):
        matrix, perms, config = _mask_inputs(graph, side_swap)
        mask, orbit = _orbit_mask(graph, matrix, config)
        want = [_transitive_under(perms, row) for row in matrix]
        assert mask.tolist() == want
        # each label is its orbit's first row, and the rows under it are the
        # images of that row under every group element and conjugation
        rows = [tuple(r) for r in matrix.tolist()]
        for label in sorted(set(orbit.tolist())):
            members = {rows[i] for i in range(len(rows)) if orbit[i] == label}
            first = rows[label]
            images = {tuple(first[p] for p in table_row) for table_row in perms.tolist()}
            images |= {tuple(1 - x for x in image) for image in images}
            assert members == images
            assert min(i for i in range(len(rows)) if orbit[i] == label) == label

    @pytest.mark.parametrize("graph, orbits", [
        (hypercube(4), (21, 25)), (complete_bipartite(4, 4), (2, 2)),
        (_haar(6, (0, 1, 3, 4)), (8, 11)), (_haar(8, (0, 1, 4, 5)), (11, 17)),
        (_haar(7, (0, 1, 2, 4)), (5, 5)), (_haar(5, (0, 1, 2, 3)), (4, 4)),
        (complete_bipartite(2, 6), (1, 1)), (cycle(6), (1, 1)),
        (subdivided_complete(5), (1, 1)),
    ], ids=["Q4", "K44", "H(Z6,0134)", "H(Z8,0145)", "H(Z7,0124)", "H(Z5,0123)",
            "K26", "C6", "SK5"])
    def test_orbit_counts(self, graph, orbits):
        for side_swap, count in zip((True, False), orbits):
            matrix, _, config = _mask_inputs(graph, side_swap)
            _, orbit = _orbit_mask(graph, matrix, config)
            assert len(set(orbit.tolist())) == count

    def test_a_set_missing_a_row_is_refused(self):
        g = hypercube(4)
        matrix, _, config = _mask_inputs(g, True)
        for drop in (0, len(matrix) // 2, len(matrix) - 1):
            with pytest.raises(VerificationFailed):
                _orbit_mask(g, np.delete(matrix, drop, axis=0), config)

    def test_an_empty_matrix_needs_no_search(self, monkeypatch):
        calls = []
        monkeypatch.setattr(symmetry, "_all_automorphisms", lambda g, config: calls.append(g))
        mask, orbit = _orbit_mask(cycle(6), np.zeros((0, 6), dtype=np.int8), RunConfig())
        assert mask.shape == orbit.shape == (0,) and calls == []

    def test_packed_keys_past_64_edges(self):
        # 66 edges pack into 9 bytes; the two alternating colourings are one
        # orbit (a rotation or conjugation swaps them), both transitive
        g = cycle(66)
        matrix, _, config = _mask_inputs(g, True, RunConfig(cap_edges=66, cap_vertices=66))
        mask, orbit = _orbit_mask(g, matrix, config)
        assert len(matrix) == 2
        assert mask.tolist() == [True, True] and orbit.tolist() == [0, 0]


class TestColouringReport:
    """``automorphisms`` with a colouring answers self-conjugacy and
    transitivity from the one group it searches, as ``gnorm check`` reads
    them."""

    @pytest.mark.parametrize("side_swap", [True, False])
    @pytest.mark.parametrize("graph", _MASK_GRAPHS, ids=_graph_id)
    def test_equals_the_whole_group_table(self, graph, side_swap, monkeypatch):
        matrix, perms, config = _mask_inputs(graph, side_swap)
        plain = automorphisms(graph, config)
        assert plain.self_conjugate is None and plain.transitive is None
        assert plain.group_order == len(perms)
        # both answers are the same across an orbit of the group and
        # conjugation, so each orbit's first row gives its rows' answers
        rows, (_, orbit) = matrix.tolist(), _orbit_mask(graph, matrix, config)
        want = {label: (bool(_colour_action(perms, rows[label])[1].any()),
                        _transitive_under(perms, rows[label]))
                for label in set(orbit.tolist())}

        def check(i):
            report = automorphisms(graph, config, rows[i])
            assert (report.edge_transitive, report.vertex_transitive, report.group_order) \
                == (plain.edge_transitive, plain.vertex_transitive, plain.group_order)
            assert (report.self_conjugate, report.transitive) == want[orbit[i]], rows[i]
            assert type(report.self_conjugate) is type(report.transitive) is bool

        # every colouring up to 1000 of them; beyond (Q4 and H(Z8,{0,1,4,5}),
        # which would add 10 s), every orbit's first row and every 10th row
        picked = sorted(set(range(0, len(rows), 1 if len(rows) <= 1000 else 10)) | set(want))
        for i in picked[:1] + picked[-1:]:  # searched and tabled afresh
            check(i)
        # the search and the table are held to brute force above; the other
        # colourings reuse the group searched under ``config`` and its table,
        # so each costs its checks, not a search and a table
        group = _all_automorphisms(graph, config)
        monkeypatch.setattr(symmetry, "_all_automorphisms",
                            lambda g, cfg: group if (g, cfg) == (graph, config) else None)
        monkeypatch.setattr(symmetry, "_edge_table",
                            lambda g, grp: perms if g == graph and grp is group else None)
        for i in picked[1:-1]:
            check(i)


# what the package outside ``symmetry`` may name of it: the two public
# searches, their report, and the transitive filter
_SYMMETRY_API = {"automorphisms", "isomorphic", "SymmetryReport", "_orbit_mask"}


def symmetry_names_read(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each name of ``symmetry`` outside ``_SYMMETRY_API``
    that another module imports from it or reads as ``symmetry.name``."""
    found = []
    for module, src in sources.items():
        if module == "symmetry":
            continue
        for n in ast.walk(ast.parse(src)):
            if isinstance(n, ast.ImportFrom) and (n.module or "").endswith("symmetry"):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) \
                    and n.value.id == "symmetry":
                names = [n.attr]
            else:
                continue
            found += [f"{module}.{name}" for name in names if name not in _SYMMETRY_API]
    return found


class TestSymmetryBoundary:
    def test_only_symmetry_reads_the_group(self):
        assert symmetry_names_read(package_sources()) == []

    def test_the_audit_finds_imports_and_attribute_reads(self):
        sample = """
from .symmetry import automorphisms, _edge_table
from . import symmetry
def check(g, m, c):
    symmetry._orbit_mask(g, m, c)
    return symmetry._all_automorphisms(g, c)
"""
        assert sorted(symmetry_names_read({"symmetry": sample, "m": sample})) == [
            "m._all_automorphisms", "m._edge_table"]
