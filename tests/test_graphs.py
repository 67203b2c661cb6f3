"""Core graph type, structural predicates, balanced-colouring enumeration."""

import ast
import random
import sys
from itertools import combinations, islice, product
from math import comb, inf

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnorm.errors import CapExceeded, ParseError
from gnorm.config import RunConfig
from gnorm.graphs import (
    BipartiteGraph,
    EdgeColouring,
    _arcs_out,
    _balanced_rows,
    _colouring_rows,
    check_aligned,
    colouring_from_json,
    complete_bipartite,
    count_two_edge_matchings,
    cycle,
    girth,
    graph_from_json,
    graph_to_json,
    is_balanced,
    is_biregular,
    is_eulerian,
    iter_balanced_colourings,
    star,
)
from gnorm.constructions import (
    hypercube,
    hypercube_beta,
    set_inclusion_graph,
    subdivided_complete,
)

from conftest import (
    _graph_id,
    _haar,
    colouring_to_json,
    complement,
    definitions,
    disjoint_union,
    package_sources,
    path,
    recursive_balanced_colourings,
    small_bipartite,
)


class TestValidation:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            BipartiteGraph(("a",), ("b",), (("a", "b"), ("a", "b")))

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError, match="isolated"):
            BipartiteGraph(("a", "a2"), ("b",), (("a", "b"),))

    def test_rejects_shared_ids(self):
        with pytest.raises(ValueError, match="unique"):
            BipartiteGraph(("x",), ("x",), (("x", "x"),))

    def test_rejects_wrong_side(self):
        with pytest.raises(ValueError, match="left to right"):
            BipartiteGraph(("a",), ("b",), (("b", "a"),))

    def test_colouring_range(self):
        with pytest.raises(ValueError):
            EdgeColouring((0, 2))

    @pytest.mark.parametrize("colours", [(0.7, 1.9), (0.0, 1.5), ("0", "1")])
    def test_colours_are_checked_before_conversion(self, colours):
        # int() would read 0.7 and 1.9 as 0 and 1
        with pytest.raises(ValueError, match="0 or 1"):
            EdgeColouring(colours)

    def test_integral_colours_convert(self):
        assert EdgeColouring(np.array([1, 0], dtype=np.int8)).colours == (1, 0)
        assert type(EdgeColouring(np.array([1], dtype=np.int8))[0]) is int


class TestPredicates:
    def test_eulerian(self, c4):
        assert is_eulerian(c4)
        assert not is_eulerian(hypercube(3))  # 3-regular
        # complete bipartite minus a perfect matching, 4-regular
        assert is_eulerian(set_inclusion_graph(5, 4, 1))

    def test_biregular(self, k23):
        assert is_biregular(k23)
        assert is_biregular(set_inclusion_graph(4, 2, 1))
        # a star with a pendant path hanging off one leaf
        g = BipartiteGraph(
            ("c", "a1"), ("b0", "b1", "b2"),
            (("c", "b0"), ("c", "b1"), ("c", "b2"), ("a1", "b2")),
        )
        assert not is_biregular(g)

    def test_girth(self, c6):
        assert girth(c6) == 6
        assert girth(hypercube(4)) == 4
        assert girth(star(3)) == inf

    def test_girth_even_on_bipartite_samples(self):
        for mask in range(1, 2 ** 9, 7):
            g = small_bipartite(mask)
            if g is None:
                continue
            gv = girth(g)
            assert gv == inf or gv % 2 == 0


class TestArcsOut:
    def test_alternating_cycle(self, c4, alt4):
        assert _arcs_out(c4, alt4) == [1, 1, 1, 1]
        assert c4.degrees == (2, 2, 2, 2)

    def test_monochromatic_cycle(self, c4, mono4):
        # colour 1 points left to right: the left side's arcs all leave it
        assert _arcs_out(c4, mono4) == [2, 2, 0, 0]

    def test_single_edge(self):
        g = BipartiteGraph(("a",), ("b",), (("a", "b"),))
        assert _arcs_out(g, EdgeColouring((1,))) == [1, 0]
        assert _arcs_out(g, EdgeColouring((0,))) == [0, 1]

    def test_alignment(self, c4):
        with pytest.raises(ValueError):
            _arcs_out(c4, EdgeColouring((1, 0)))

    def test_against_the_name_keyed_counts(self):
        rng = random.Random("arcs out")
        for g in index_form_cases():
            for _ in range(3):
                a = EdgeColouring(tuple(rng.randrange(2) for _ in range(g.n_edges)))
                arcs = name_arcs_out(g, a)
                assert _arcs_out(g, a) == [arcs[v] for v in g.vertices]

    @given(mask=st.integers(1, 2 ** 9 - 1), bits=st.integers(0, 2 ** 9 - 1))
    def test_split_identity(self, mask, bits):
        # C(deg, 2) decomposes into the three oriented-pair counts at each vertex
        g = small_bipartite(mask)
        if g is None:
            return
        colours = EdgeColouring(tuple(bits >> i & 1 for i in range(g.n_edges)))
        for d_out, d in zip(_arcs_out(g, colours), g.degrees):
            d_in = d - d_out
            assert comb(d, 2) == comb(d_out, 2) + comb(d_in, 2) + d_out * d_in

    @given(mask=st.integers(1, 2 ** 9 - 1), bits=st.integers(0, 2 ** 9 - 1))
    def test_mixed_vertex_detection(self, mask, bits):
        g = small_bipartite(mask)
        if g is None:
            return
        colours = EdgeColouring(tuple(bits >> i & 1 for i in range(g.n_edges)))
        inc = name_incident_edges(g)
        mixed = any({colours[i] for i in inc[v]} == {0, 1} for v in g.vertices)
        splits = zip(_arcs_out(g, colours), g.degrees)
        assert any(d_out * (d - d_out) for d_out, d in splits) == mixed


def _even_subgraphs(m: int, n: int, count: int, rng: random.Random) -> list[BipartiteGraph]:
    """Seeded even-degree subgraphs of K_{m,n}: sums mod 2 of a few random
    4-cycles, with the vertices they miss left out."""
    graphs = []
    while len(graphs) < count:
        edges: set[tuple[str, str]] = set()
        for _ in range(rng.randint(1, 6)):
            a, b = rng.sample(range(m), 2)
            c, d = rng.sample(range(n), 2)
            edges ^= {(f"a{x}", f"b{y}") for x in (a, b) for y in (c, d)}
        if edges:
            graphs.append(BipartiteGraph(tuple(sorted({u for u, _ in edges})),
                                         tuple(sorted({v for _, v in edges})),
                                         tuple(sorted(edges))))
    return graphs


def euler_alternation(g: BipartiteGraph) -> tuple[int, ...]:
    """Colour an Euler circuit of each component 1, 0, 1, 0, ... (Hierholzer).
    A bipartite circuit has even length, so each pass through a vertex uses
    one edge of each colour, and the colouring is balanced."""
    colours = [0] * g.n_edges
    used = [False] * g.n_edges
    inc = name_incident_edges(g)
    for comp in g.components:
        start = g.vertices[min(comp)]
        stack, circuit = [(start, None)], []
        while stack:
            v, via = stack[-1]
            free = [j for j in inc[v] if not used[j]]
            if not free:
                stack.pop()
                if via is not None:
                    circuit.append(via)
                continue
            used[free[0]] = True
            x, y = g.edges[free[0]]
            stack.append((y if v == x else x, free[0]))
        for k, j in enumerate(circuit):
            colours[j] = 1 - k % 2
    return tuple(colours)


class TestBalancedRows:
    def test_no_balanced_colouring_is_an_empty_matrix(self):
        rows = _balanced_rows(star(3))
        assert rows.dtype == np.int8 and rows.shape == (0, 3)

    def test_rows_are_the_enumeration(self):
        g = complete_bipartite(2, 4)
        rows = _balanced_rows(g)
        assert rows.dtype == np.int8 and rows.flags.c_contiguous
        assert [tuple(r) for r in rows.tolist()] == \
            [c.colours for c in iter_balanced_colourings(g)]

    def test_cap(self, c4):
        with pytest.raises(CapExceeded):
            _balanced_rows(c4, RunConfig(cap_edges=2))

    @pytest.mark.parametrize("m, n", [(3, 4), (4, 4)])
    def test_every_even_degree_graph_has_a_row(self, m, n):
        # the Euler-alternation colouring is balanced, so an even-degree
        # graph always has a balanced colouring, and it is among the rows
        for g in _even_subgraphs(m, n, 25, random.Random(f"euler {m} {n}")):
            colours = euler_alternation(g)
            assert is_balanced(g, EdgeColouring(colours))
            assert colours in {tuple(r) for r in _balanced_rows(g).tolist()}


class TestBalanced:
    def test_examples(self, c4, alt4, mono4):
        assert is_balanced(c4, alt4)
        assert not is_balanced(c4, mono4)
        q4 = hypercube(4)
        assert is_balanced(q4, hypercube_beta(4))

    def test_enumeration_c4(self, c4):
        cols = iter_balanced_colourings(c4)
        assert [c.colours for c in cols] == [(0, 1, 0, 1), (1, 0, 1, 0)]

    def test_enumeration_odd_degree_empty(self):
        assert list(iter_balanced_colourings(star(3))) == []

    def test_enumeration_matches_brute_force_k44(self):
        g = complete_bipartite(4, 4)
        smart = {c.colours for c in iter_balanced_colourings(g)}
        brute = {
            bits
            for bits in product((0, 1), repeat=16)
            if is_balanced(g, EdgeColouring(bits))
        }
        assert smart == brute
        assert len(smart) == 90  # 4x4 0/1 matrices with all line sums 2

    def test_cap(self, c4):
        with pytest.raises(CapExceeded):
            next(iter_balanced_colourings(c4, RunConfig(cap_edges=2)))

    @given(mask=st.integers(1, 2 ** 9 - 1))
    @settings(max_examples=40, deadline=None)
    def test_closed_under_conjugation_and_even(self, mask):
        g = small_bipartite(mask)
        if g is None:
            return
        cols = {c.colours for c in iter_balanced_colourings(g)}
        assert {tuple(1 - x for x in c) for c in cols} == cols
        assert len(cols) % 2 == 0

    def test_every_colouring_of_every_k33_subgraph_against_the_counts(self):
        # balanced means that each vertex meets as many edges of colour 1 as
        # of colour 0: counted here edge by edge, 3^9 colourings in all, and
        # the balanced ones are exactly the enumerator's rows
        for mask in range(1, 2 ** 9):
            g = small_bipartite(mask)
            if g is None:
                continue
            rows = {tuple(r) for r in _balanced_rows(g).tolist()}
            for bits in product((0, 1), repeat=g.n_edges):
                count = {v: 0 for v in g.vertices}
                for (u, v), c in zip(g.edges, bits):
                    count[u] += 1 if c else -1
                    count[v] += 1 if c else -1
                want = not any(count.values())
                assert is_balanced(g, EdgeColouring(bits)) == want, (mask, bits)
                assert (bits in rows) == want, (mask, bits)

    @given(mask=st.integers(1, 2 ** 9 - 1), bits=st.integers(0, 2 ** 9 - 1))
    def test_conjugation_preserves_balance(self, mask, bits):
        g = small_bipartite(mask)
        if g is None:
            return
        colours = EdgeColouring(tuple(bits >> i & 1 for i in range(g.n_edges)))
        assert is_balanced(g, colours) == is_balanced(g, complement(colours))


def oracle_cases() -> list[BipartiteGraph]:
    """Every graph of at most 32 edges whose balanced colourings the tests
    list: C4-C10, K_{2,4}, K_{2,6}, K_{4,4}, Q4, subdivided K5,
    H(Z7,{0,1,2,4}) and the even subgraphs of K_{3,4} and K_{4,4}."""
    return [
        *(cycle(n) for n in (4, 6, 8, 10)),
        complete_bipartite(2, 4), complete_bipartite(2, 6), complete_bipartite(4, 4),
        hypercube(4), subdivided_complete(5), _haar(7, (0, 1, 2, 4)),
        *(g for m, n in ((3, 4), (4, 4))
          for g in _even_subgraphs(m, n, 25, random.Random(f"euler {m} {n}"))),
    ]


class TestExplicitStack:
    """The balanced walk on an explicit stack yields what the recursive walk
    it replaced yields, order included, and is not bounded by the recursion
    limit."""

    @pytest.mark.parametrize("g", oracle_cases(), ids=_graph_id)
    def test_same_sequence_as_the_recursive_walk(self, g):
        want = list(recursive_balanced_colourings(g))
        assert list(iter_balanced_colourings(g)) == want
        assert _balanced_rows(g).tolist() == [list(c) for c in want]

    def test_every_k33_subgraph_against_the_recursive_walk(self):
        for mask in range(1, 2 ** 9):
            g = small_bipartite(mask)
            if g is not None:
                assert list(iter_balanced_colourings(g)) == \
                    list(recursive_balanced_colourings(g)), mask

    def test_a_walk_stopped_early_agrees_with_a_fresh_one(self):
        # Q4's walk cut off mid-way, then a second walk run to the end while
        # the first is suspended, then the first resumed: each keeps its own
        # stack, so both give the one sequence
        g = hypercube(4)
        first = iter_balanced_colourings(g)
        prefix = list(islice(first, 100))
        fresh = list(iter_balanced_colourings(g))
        assert prefix == fresh[:100] and len(fresh) == 2970
        assert prefix + list(first) == fresh

    def test_the_empty_graph_has_one_empty_colouring(self):
        g = BipartiteGraph((), (), ())
        assert list(iter_balanced_colourings(g)) == list(recursive_balanced_colourings(g)) \
            == [EdgeColouring(())]

    def test_the_walk_is_not_bounded_by_the_recursion_limit(self):
        # the walk colours C_1000's edges one level each; with the limit a
        # little above this test's own depth, a walk that recursed once per
        # edge would raise RecursionError
        g = cycle(1000)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(depth + 50, 200))
        try:
            rows = _balanced_rows(g, RunConfig(cap_edges=5000))
        finally:
            sys.setrecursionlimit(limit)
        alternating = [i % 2 for i in range(1000)]
        assert rows.tolist() == [alternating, [1 - c for c in alternating]]


class TestDisjointUnion:
    def test_two_alternating_squares(self, c4, alt4):
        g, a = disjoint_union([(c4, alt4), (c4, alt4)])
        assert g.n_vertices == 8 and len(a) == 8
        assert is_balanced(g, a)

    def test_colour_concatenation(self):
        k12 = star(2)
        g, a = disjoint_union([(k12, EdgeColouring((1, 0))), (k12, EdgeColouring((0, 1)))])
        assert a.colours == (1, 0, 0, 1)

    def test_copy_count(self, c6):
        a = EdgeColouring((1, 0, 1, 0, 1, 0))
        g, _ = disjoint_union([(c6, a)] * 5)
        assert g.n_edges == 5 * 6

    def test_preserves_balancedness_componentwise(self, c4, c6, alt4):
        alt6 = EdgeColouring((1, 0, 1, 0, 1, 0))
        g, a = disjoint_union([(c4, alt4), (c6, alt6)])
        assert is_balanced(g, a)
        g, a = disjoint_union([(c4, alt4), (c6, EdgeColouring((1,) * 6))])
        assert not is_balanced(g, a)


class TestMatchings:
    def test_counts(self, c4, c6):
        assert count_two_edge_matchings(c4) == 2
        assert count_two_edge_matchings(star(3)) == 0
        assert count_two_edge_matchings(c6) == comb(6, 2) - 6

    def test_every_k33_subgraph_against_the_pairs(self):
        for mask in range(1, 2 ** 9):
            g = small_bipartite(mask)
            if g is None:
                continue
            pairs = sum(1 for (u1, v1), (u2, v2) in combinations(g.edges, 2)
                        if u1 != u2 and v1 != v2)
            assert count_two_edge_matchings(g) == pairs, mask


class TestJson:
    def test_graph_round_trip(self, c6):
        assert graph_from_json(graph_to_json(c6)) == c6

    def test_colouring_round_trip(self):
        a = EdgeColouring((1, 0, 0, 1))
        assert colouring_from_json(colouring_to_json(a)) == a

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            graph_from_json({"left": ["a"]})
        with pytest.raises(ParseError):
            colouring_from_json({"colours": ["x"]})

    @pytest.mark.parametrize("colours", [[0.6, 0.4, 1.5, 1.2], ["1", "0"], "0110", 7,
                                         [True, False], [1.0, 0.0]])
    def test_colouring_must_be_a_list_of_bits(self, colours):
        with pytest.raises(ParseError):
            colouring_from_json({"colours": colours})

    @pytest.mark.parametrize("blob", [
        {"left": "ab", "right": ["x", "y"], "edges": ["ax", "bx", "ay", "by"]},
        {"left": ["a", "b"], "right": "xy", "edges": [["a", "x"], ["b", "y"]]},
        {"left": ["a", "b"], "right": ["x", "y"], "edges": ["ax", "by"]},
        {"left": ["a", "b"], "right": ["x", "y"], "edges": [["a", "x", "b"], ["b", "y"]]},
        {"left": ["a"], "right": ["x"], "edges": {"a": "x"}},
        ["a", "x"],
    ], ids=["left-string", "right-string", "edge-strings", "edge-of-three", "edge-dict",
            "not-an-object"])
    def test_graph_needs_lists(self, blob):
        # a string is iterable, and once loaded "ab" as the sides a, b and
        # the edges "ax", ... as pairs
        with pytest.raises(ParseError):
            graph_from_json(blob)

    def test_path_and_alignment(self):
        g = path(3)
        assert g.n_edges == 3
        with pytest.raises(ValueError):
            check_aligned(g, EdgeColouring((1, 0)))


class TestColouringRows:
    @pytest.mark.parametrize("m", range(7))
    def test_slices_of_the_product_order(self, m):
        space = list(product((0, 1), repeat=m))
        for start, stop in ((0, len(space)), (0, 1), (len(space) // 3, len(space) - 1),
                            (len(space) - 1, len(space)), (1, 1)):
            rows = _colouring_rows(m, start, stop)
            assert rows.dtype == np.int8 and rows.flags.c_contiguous
            assert rows.shape == (stop - start, m)
            assert [tuple(r) for r in rows.tolist()] == space[start:stop]


def name_incident_edges(g: BipartiteGraph) -> dict:
    """The name-keyed incident edges as first defined, from the edge list."""
    inc = {v: [] for v in g.vertices}
    for i, (u, v) in enumerate(g.edges):
        inc[u].append(i)
        inc[v].append(i)
    return {v: tuple(ix) for v, ix in inc.items()}


def name_degrees(g: BipartiteGraph) -> dict:
    """Each vertex's degree by name, counted over the edge list."""
    deg = {v: 0 for v in g.vertices}
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def name_arcs_out(g: BipartiteGraph, a: EdgeColouring) -> dict:
    """The arcs out of each vertex by name, as first defined: colour 1
    directs an edge from its left end to its right end, colour 0 back."""
    out = {v: 0 for v in g.vertices}
    for (u, v), c in zip(g.edges, a):
        out[u if c == 1 else v] += 1
    return out


def name_girth(g: BipartiteGraph) -> int | float:
    """The girth as first defined: per edge, a breadth-first search over the
    name-keyed incident edges with that edge deleted."""
    inc, best = name_incident_edges(g), inf
    for i, (u, v) in enumerate(g.edges):
        dist, queue = {u: 0}, [u]
        for x in queue:
            for j in inc[x]:
                y = next(w for w in g.edges[j] if w != x)
                if j != i and y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            best = min(best, dist[v] + 1)
    return best


def name_components(g: BipartiteGraph) -> tuple:
    """The connected components, by merging the ends of each edge, in the
    order of their first vertex."""
    comp = {v: {v} for v in g.vertices}
    for u, v in g.edges:
        if comp[u] is not comp[v]:
            merged = comp[u] | comp[v]
            for w in merged:
                comp[w] = merged
    return tuple(dict.fromkeys(frozenset(comp[v]) for v in g.vertices))


def relabelled(g: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    """g under fresh vertex names, with each side and the edge list in a
    shuffled order, so that the edges no longer list each vertex's
    neighbours in ascending index order."""
    names = dict(zip(g.vertices, rng.sample(range(10 * g.n_vertices), g.n_vertices)))
    left, right = ([f"v{names[v]}" for v in side] for side in (g.left, g.right))
    edges = [(f"v{names[u]}", f"v{names[v]}") for u, v in g.edges]
    for seq in (left, right, edges):
        rng.shuffle(seq)
    return BipartiteGraph(tuple(left), tuple(right), tuple(edges))


def index_form_cases() -> list[BipartiteGraph]:
    rng = random.Random("index form")
    graphs = [g for mask in range(1, 2 ** 9) if (g := small_bipartite(mask)) is not None]
    return graphs + [relabelled(g, rng) for g in
                     (hypercube(4), complete_bipartite(4, 4), subdivided_complete(5))]


def _is_neighbours(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "neighbours"


def _counts_degrees(node: ast.AST) -> bool:
    """``len(x.neighbours[...])``, ``map(len, x.neighbours)``, or a
    comprehension over ``x.neighbours`` that takes ``len`` of its target."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "len" and len(node.args) == 1:
            arg = node.args[0]
            return isinstance(arg, ast.Subscript) and _is_neighbours(arg.value)
        if node.func.id == "map" and len(node.args) == 2:
            fn, seq = node.args
            return isinstance(fn, ast.Name) and fn.id == "len" and _is_neighbours(seq)
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
        targets = {gen.target.id for gen in node.generators
                   if _is_neighbours(gen.iter) and isinstance(gen.target, ast.Name)}
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "len" and len(n.args) == 1
                   and isinstance(n.args[0], ast.Name) and n.args[0].id in targets
                   for n in ast.walk(node))
    return False


def vertex_index_readers(sources: dict[str, str]) -> list[str]:
    """``module.function`` (``module.<module>`` at the top level) for each
    read of ``vertex_index`` outside ``graphs``, and for each degree counted
    there from ``neighbours`` instead of read from ``degrees``, by its
    innermost function.  A degree count through a local alias of
    ``neighbours`` (``adj = g.neighbours; len(adj[x])``) escapes it."""
    found = []
    for module, src in sources.items():
        if module == "graphs":
            continue
        tree = ast.parse(src)
        # definitions() yields an outer function before those nested in it
        owner = {id(n): name for name, node in definitions(tree) for n in ast.walk(node)}
        found += [f"{module}.{owner.get(id(n), '<module>')}" for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and n.attr == "vertex_index"
                  or _counts_degrees(n)]
    return found


class TestIndexForm:
    def test_properties_against_the_edge_list(self):
        for g in index_form_cases():
            vidx = g.vertex_index
            assert g.ends == tuple((vidx[u], vidx[v]) for u, v in g.edges)
            assert all(x < y for x, y in g.ends)
            through = [sorted(y for ends in g.ends if x in ends for y in ends if y != x)
                       for x in range(g.n_vertices)]
            assert [list(ns) for ns in g.neighbours] == through
            assert len(g.edge_at) == 2 * g.n_edges
            assert all(g.edge_at[x, y] == g.edge_at[y, x] == i
                       for i, (x, y) in enumerate(g.ends))
            deg = name_degrees(g)
            assert g.degrees == tuple(deg[v] for v in g.vertices)
            assert deg == {v: len(ix) for v, ix in name_incident_edges(g).items()}
            assert girth(g) == name_girth(g)
            assert all(isinstance(x, int) for comp in g.components for x in comp)
            assert tuple(frozenset(g.vertices[x] for x in comp)
                         for comp in g.components) == name_components(g)
            # computed once per graph object
            assert g.ends is g.ends and g.neighbours is g.neighbours
            assert g.degrees is g.degrees and g.components is g.components

    def test_no_module_but_graphs_rebuilds_vertex_numbering(self):
        assert vertex_index_readers(package_sources()) == []

    def test_the_audit_finds_nested_and_top_level_reads(self):
        sample = """
first = g.vertex_index
def outer(g):
    def inner():
        return g.vertex_index
    return g.ends
"""
        assert vertex_index_readers({"graphs": sample, "m": sample}) == [
            "m.<module>", "m.outer.<locals>.inner"]

    def test_the_audit_finds_degrees_counted_from_neighbours(self):
        sample = """
top = max(map(len, g.neighbours))
def entry(g, x):
    return len(g.neighbours[x])
def comprehension(g):
    return [len(ns) for ns in g.neighbours]
def fine(g, x):
    adj = g.neighbours
    return g.degrees[x], len(g.neighbours), len(adj[x]), sum(map(len, g.ends))
"""
        assert vertex_index_readers({"graphs": sample, "m": sample}) == [
            "m.<module>", "m.entry", "m.comprehension"]
