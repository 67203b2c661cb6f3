"""Automorphism search against brute-force oracles, colouring symmetry."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnorm.config import RunConfig
from gnorm.errors import CapExceeded
from gnorm.graphs import BipartiteGraph, EdgeColouring, complete_bipartite, cycle, path, star
from gnorm.symmetry import (
    automorphisms,
    coloured_isomorphic,
    exists_transitive_colouring,
    is_edge_transitive,
    is_self_conjugate,
    is_transitive_colouring,
    isomorphic,
)
from gnorm.constructions import (
    bipartite_kneser,
    hypercube,
    hypercube_alpha,
    hypercube_beta,
    set_inclusion_graph,
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
            g.is_left(v) != g.is_left(phi[v]) for v in verts
        ):
            continue
        if {frozenset((phi[u], phi[v])) for u, v in g.edges} == edge_set:
            count += 1
    return count


class TestAutomorphisms:
    def test_c4_dihedral(self, c4):
        rep = automorphisms(c4, side_swap=True)
        assert rep.group_order == 8 == brute_automorphism_count(c4)
        assert rep.edge_transitive and rep.vertex_transitive

    def test_c6_side_preserving(self, c6):
        rep = automorphisms(c6, side_swap=False)
        assert rep.group_order == 6 == brute_automorphism_count(c6, side_preserving=True)

    def test_k23_no_swap_possible(self, k23):
        rep = automorphisms(k23, side_swap=True)
        assert rep.group_order == 12 == brute_automorphism_count(k23)

    def test_disconnected_per_component_flips(self):
        # two disjoint edges: each edge may flip independently and the edges
        # may swap, giving 2 * 2 * 2 = 8 usual-graph automorphisms
        g = BipartiteGraph(("a0", "a1"), ("b0", "b1"), (("a0", "b0"), ("a1", "b1")))
        rep = automorphisms(g, side_swap=True)
        assert rep.group_order == 8 == brute_automorphism_count(g)

    def test_generators_generate(self, c6):
        rep = automorphisms(c6, side_swap=True)
        from gnorm.symmetry import _closure
        group = _closure([a.images for a in rep.generators], c6.n_vertices)
        assert len(group) == rep.group_order

    def test_edge_permutation_is_permutation(self, c6):
        rep = automorphisms(c6, side_swap=True)
        for gen in rep.generators:
            perm = gen.edge_permutation(c6)
            assert sorted(perm) == list(range(c6.n_edges))

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


class TestEdgeTransitivity:
    def test_examples(self):
        assert is_edge_transitive(hypercube(3))
        assert not is_edge_transitive(path(4))
        assert is_edge_transitive(set_inclusion_graph(4, 2, 1))


class TestIsomorphism:
    def test_oriented_vs_usual_star(self):
        left_star, right_star = star(2, True), star(2, False)
        assert isomorphic(left_star, right_star, side_swap=True)
        assert not isomorphic(left_star, right_star, side_swap=False)

    def test_inclusion_duality(self):
        # I(n, k, r) and I(n, n-r, n-k) agree as usual graphs
        for n, k, r in ((4, 3, 1), (5, 3, 2), (5, 4, 2)):
            assert isomorphic(
                set_inclusion_graph(n, k, r),
                set_inclusion_graph(n, n - r, n - k),
                side_swap=True,
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
        assert coloured_isomorphic(c4, alt4, c4, alt4.conjugate())

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
        assert coloured_isomorphic(q4, a4, q4, a4.conjugate())

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


class TestSelfConjugate:
    def test_alternating_square(self, c4, alt4):
        verdict = is_self_conjugate(c4, alt4)
        assert verdict and verdict.balanced and verdict.witness is not None

    def test_non_balanced_c8_figure(self):
        # two antipodal 2-paths in one colour: symmetric but not balanced
        c8 = cycle(8)
        colours = EdgeColouring((0, 0, 1, 1, 0, 0, 1, 1))
        verdict = is_self_conjugate(c8, colours)
        assert not verdict and not verdict.balanced

    def test_monochromatic(self, c6):
        verdict = is_self_conjugate(c6, EdgeColouring((1,) * 6))
        assert not verdict and not verdict.balanced


class TestTransitiveColourings:
    def test_alternating_cycles(self):
        for length in (4, 6, 8):
            g = cycle(length)
            alt = EdgeColouring(tuple(i % 2 for i in range(length)))
            assert is_transitive_colouring(g, alt)

    def test_monochromatic_not(self, c4, mono4):
        assert not is_transitive_colouring(c4, mono4)

    def test_hypercube_colourings(self):
        q4 = hypercube(4)
        assert is_transitive_colouring(q4, hypercube_alpha(4))
        assert is_transitive_colouring(q4, hypercube_beta(4))

    def test_hierarchy(self, c4):
        # transitive implies self-conjugate implies balanced
        from gnorm.graphs import is_balanced
        for bits in range(16):
            a = EdgeColouring(tuple(bits >> i & 1 for i in range(4)))
            if is_transitive_colouring(c4, a):
                assert is_self_conjugate(c4, a)
            if is_self_conjugate(c4, a):
                assert is_balanced(c4, a)


class TestExistsTransitive:
    def test_c6_present(self, c6):
        res = exists_transitive_colouring(c6)
        assert res.present and res.colouring.colours == (0, 1, 0, 1, 0, 1)

    def test_star_absent(self):
        res = exists_transitive_colouring(star(3))
        assert not res.present and res.exhausted

    def test_q4_present(self):
        res = exists_transitive_colouring(hypercube(4))
        assert res.present
        assert is_transitive_colouring(hypercube(4), res.colouring)

    def test_present_implies_edge_transitive(self):
        for g in (cycle(4), cycle(6), hypercube(4), set_inclusion_graph(4, 2, 1)):
            if exists_transitive_colouring(g).present:
                assert is_edge_transitive(g)


class TestReportJson:
    def test_symmetry_report_serialises(self, c4):
        import json
        rep = automorphisms(c4, side_swap=True)
        blob = rep.to_json(c4)
        json.dumps(blob)
        assert blob["group_order"] == 8
        assert all(len(p) == 4 for p in blob["generators"])
        assert set(blob["vertex_order"]) == set(c4.vertices)


class TestAdmissibilityLink:
    def test_inadmissible_small_kneser_has_no_transitive_colouring(self):
        # for every parameter pair small enough to search exhaustively
        from gnorm.arithmetic import kneser_admissible
        from gnorm.constructions import bipartite_kneser
        for n in range(3, 8):
            for r in range(1, (n - 1) // 2 + 1):
                if n - r <= r:
                    continue
                g = bipartite_kneser(n, r)
                if g.n_edges > 32 or g.n_vertices > 30:
                    continue
                if not kneser_admissible(n, r):
                    assert not exists_transitive_colouring(g).present, (n, r)


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
        if g is not None and not (even and any(g.degree(v) % 2 for v in g.vertices)):
            graphs.append(g)
    return graphs


class TestTransitivityLiteralDefinition:
    def test_matches_pairwise_definition_on_all_square_colourings(self):
        # literal check: every ordered same-colour edge pair is linked by a
        # colour-preserving automorphism, every opposite-colour pair by a
        # colour-reversing one
        from gnorm.symmetry import _all_automorphisms
        from gnorm.config import DEFAULT
        from gnorm.graphs import is_balanced
        for length in (4, 6):
            g = cycle(length)
            autos = _all_automorphisms(g, True, DEFAULT)
            perms = [a.edge_permutation(g) for a in autos]
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
                assert is_transitive_colouring(g, a) == literal, a.colours

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
        from gnorm.graphs import is_balanced, iter_balanced_colourings
        from gnorm.symmetry import _all_automorphisms, _edge_table, _transitive_under
        autos = _all_automorphisms(graph, True, DEFAULT)
        perms = [a.edge_permutation(graph) for a in autos]
        table = _edge_table(graph, autos)
        assert table.tolist() == [list(p) for p in perms]
        m = graph.n_edges
        if m <= 12:
            colourings = [EdgeColouring(tuple(bits >> i & 1 for i in range(m)))
                          for bits in range(2 ** m)]
        else:
            colourings = list(iter_balanced_colourings(graph))
        for a in colourings:
            literal = _literal_transitive(a, perms)
            assert _transitive_under(graph, a, table) == literal, a.colours
            assert is_transitive_colouring(graph, a) == (is_balanced(graph, a) and literal)

    @pytest.mark.parametrize("graph", [
        cycle(6), complete_bipartite(2, 4), *_random_k34_subgraphs(6, seed=12),
    ], ids=lambda g: f"{len(g.left)}+{len(g.right)}v{g.n_edges}e")
    def test_report_and_conjugacy_witness_match_permutation_loop(self, graph):
        # orbits by closure under every automorphism's permutation; the
        # conjugacy witness is the first colour-reversing automorphism
        from gnorm.config import DEFAULT
        from gnorm.graphs import is_balanced
        from gnorm.symmetry import _all_automorphisms

        def orbit_size(maps) -> int:
            seen, stack = {0}, [0]
            while stack:
                x = stack.pop()
                for p in maps:
                    if p[x] not in seen:
                        seen.add(p[x])
                        stack.append(p[x])
            return len(seen)

        autos = _all_automorphisms(graph, True, DEFAULT)
        perms = [a.edge_permutation(graph) for a in autos]
        report = automorphisms(graph)
        assert report.edge_transitive == (orbit_size(perms) == graph.n_edges)
        assert report.vertex_transitive == (
            orbit_size([a.images for a in autos]) == graph.n_vertices)
        m = graph.n_edges
        for bits in range(2 ** m):
            a = EdgeColouring(tuple(bits >> i & 1 for i in range(m)))
            verdict = is_self_conjugate(graph, a)
            want = next((auto for auto, p in zip(autos, perms)
                         if all(a[p[i]] != a[i] for i in range(m))), None)
            if not is_balanced(graph, a):
                want = None
            assert verdict.witness == want and verdict.ok == (want is not None)


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
                got = automorphisms(g, side_swap=swap).group_order
                assert got == want, (edges, swap, got, want)
            cases += 1
        assert cases >= 40

    def test_isomorphism_matches_brute_force_on_random_pairs(self):
        import random
        from itertools import permutations as perms
        rng = random.Random(2718)

        def random_graph():
            pairs = [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]
            edges = [p for p in pairs if rng.random() < 0.5]
            if not edges:
                return None
            return BipartiteGraph(
                tuple(sorted({u for u, _ in edges})),
                tuple(sorted({v for _, v in edges})),
                tuple(edges),
            )

        def brute_iso(g1, g2):
            if g1.n_vertices != g2.n_vertices or g1.n_edges != g2.n_edges:
                return False
            e2 = {frozenset(e) for e in g2.edges}
            for p in perms(g2.vertices):
                phi = dict(zip(g1.vertices, p))
                if {frozenset((phi[u], phi[v])) for u, v in g1.edges} == e2:
                    return True
            return False

        checked = 0
        while checked < 40:
            g1, g2 = random_graph(), random_graph()
            if g1 is None or g2 is None:
                continue
            assert isomorphic(g1, g2, side_swap=True) == brute_iso(g1, g2)
            checked += 1
