"""Graph and tournament families against their closed-form counts."""

import json
import random
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from gnorm.errors import CapExceeded, InvalidParameter
from gnorm.graphs import BipartiteGraph, EdgeColouring, cycle, girth, is_balanced, is_biregular, is_eulerian
from gnorm.cycles import classify_4cycles, kappa_alternating
from gnorm.symmetry import isomorphic
from gnorm.constructions import (
    Tournament,
    _edge_arcs,
    bipartite_kneser,
    clockwise_tournament,
    colouring_from_tournament,
    count_directed_cycles,
    hypercube,
    hypercube_alpha,
    hypercube_beta,
    quadratic_residue_tournament,
    regular_tournaments,
    set_inclusion_graph,
    subdivide,
    subdivided_complete,
    tournament_from_colouring,
)

from conftest import _arc_transitive, coloured_isomorphic


class TestHypercube:
    def test_small_dimensions(self):
        assert isomorphic(hypercube(2), cycle(4))
        q3 = hypercube(3)
        assert q3.n_edges == 12 and q3.degrees == (3,) * 8
        q4 = hypercube(4)
        assert q4.n_edges == 32 and girth(q4) == 4

    def test_even_weight_left(self):
        q3 = hypercube(3)
        assert all(v.count("1") % 2 == 0 for v in q3.left)

    def test_alpha(self):
        assert coloured_isomorphic(
            hypercube(2), hypercube_alpha(2), cycle(4), EdgeColouring((1, 0, 1, 0))
        )
        for d in (2, 4, 6):
            assert is_balanced(hypercube(d), hypercube_alpha(d))
        with pytest.raises(InvalidParameter):
            hypercube_alpha(3)

    def test_beta(self):
        for d in (2, 4):
            assert is_balanced(hypercube(d), hypercube_beta(d))
        assert classify_4cycles(hypercube(4), hypercube_beta(4)).c2 == 0
        assert coloured_isomorphic(
            hypercube(2), hypercube_beta(2), cycle(4), EdgeColouring((1, 0, 1, 0))
        )

    def test_beta_c2_zero_dimension_6(self):
        assert classify_4cycles(hypercube(6), hypercube_beta(6)).c2 == 0


# -- oracle: Q_d and its colourings from the vertex names ---------------------------


def ref_hypercube(d):
    """Q_d as it was built before the integer edge list."""
    if d < 1:
        raise InvalidParameter("hypercube dimension must be >= 1")
    if d > 10:
        raise CapExceeded("hypercube construction", d, 10)
    bits = [format(v, f"0{d}b")[::-1] for v in range(1 << d)]
    left = tuple(bits[v] for v in range(1 << d) if bin(v).count("1") % 2 == 0)
    right = tuple(bits[v] for v in range(1 << d) if bin(v).count("1") % 2 == 1)
    edges = []
    for v in range(1 << d):
        for j in range(d):
            w = v ^ (1 << j)
            if v < w:
                even, odd = (v, w) if bin(v).count("1") % 2 == 0 else (w, v)
                edges.append((bits[even], bits[odd]))
    return left, right, tuple(edges)


def ref_edge_direction(u: str, v: str) -> int:
    """Coordinate in which two hypercube vertices differ."""
    diffs = [j for j, (x, y) in enumerate(zip(u, v)) if x != y]
    if len(diffs) != 1:
        raise ValueError("not a hypercube edge")
    return diffs[0]


def ref_hypercube_alpha(d):
    if d % 2:
        raise InvalidParameter("direction colouring needs an even dimension")
    _, _, edges = ref_hypercube(d)
    half = d // 2
    return tuple(1 if ref_edge_direction(u, v) < half else 0 for u, v in edges)


def ref_hypercube_beta(d):
    if d % 2:
        raise InvalidParameter("this colouring needs an even dimension")
    _, _, edges = ref_hypercube(d)
    m = d // 2
    colours = []
    for u, v in edges:
        j = ref_edge_direction(u, v)
        x = u
        w = x.count("1")
        if j < m:
            c = (w + int(x[j]) + int(x[j + m])) % 2
        else:
            c = (w + int(x[j]) + int(x[j - m]) + 1) % 2
        colours.append(c)
    return tuple(colours)


class TestHypercubeOracle:
    @pytest.mark.parametrize("d", range(1, 11))
    def test_graph(self, d):
        g = hypercube(d)
        assert (g.left, g.right, g.edges) == ref_hypercube(d)

    @pytest.mark.parametrize("d", range(2, 11, 2))
    def test_colourings(self, d):
        assert hypercube_alpha(d).colours == ref_hypercube_alpha(d)
        assert hypercube_beta(d).colours == ref_hypercube_beta(d)

    def test_refusals(self):
        # d = 0 and d = 11 for all three, and every odd d for the colourings
        cases = [(hypercube, ref_hypercube, d) for d in (-1, 0, 11, 12)]
        cases += [(build, ref, d) for build, ref in ((hypercube_alpha, ref_hypercube_alpha),
                                                     (hypercube_beta, ref_hypercube_beta))
                  for d in (-1, 0, 1, 3, 5, 7, 9, 11, 12)]
        for build, ref, d in cases:
            with pytest.raises(Exception) as want:
                ref(d)
            with pytest.raises(Exception) as got:
                build(d)
            assert type(got.value) is type(want.value), (build.__name__, d)
            assert str(got.value) == str(want.value), (build.__name__, d)


class TestSubdivide:
    def test_triangle_gives_hexagon(self):
        g = subdivide(["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
        assert isomorphic(g, cycle(6))

    def test_k4(self):
        g = subdivided_complete(4)
        assert g.n_edges == 12 and len(g.right) == 6

    def test_octahedron(self):
        verts = [f"v{i}" for i in range(6)]
        # K_{2,2,2}: all pairs except the three antipodal ones
        anti = {frozenset(("v0", "v1")), frozenset(("v2", "v3")),
                frozenset(("v4", "v5"))}
        edges = [
            (a, b) for a, b in combinations(verts, 2)
            if frozenset((a, b)) not in anti
        ]
        g = subdivide(verts, edges)
        assert g.n_edges == 24 and is_eulerian(g)

    def test_rejects_loops_and_duplicates(self):
        with pytest.raises(ValueError):
            subdivide(["a"], [("a", "a")])
        with pytest.raises(ValueError):
            subdivide(["a", "b"], [("a", "b"), ("b", "a")])

    @pytest.mark.parametrize("vertices, edges, message", [
        (["a"], [("a", "a")], "loops not allowed"),
        (["b", "a"], [("b", "a"), ("a", "b")], "duplicate edge ('a', 'b')"),
        (["10", "2"], [("10", "2"), ("2", "10")], "duplicate edge ('10', '2')"),
        (["b", "a"], [("b", "c")], "edge ('b', 'c') has an end 'c' outside the vertices"),
        (["b", "a"], [("A", "b")], "edge ('A', 'b') has an end 'A' outside the vertices"),
        (["b", "a"], [("a", "b"), ("x", "y")],
         "edge ('x', 'y') has an end 'x' outside the vertices"),
        (["b"], [("c", "c")], "loops not allowed"),
    ])
    def test_refusals_keep_their_messages(self, vertices, edges, message):
        # a duplicate is named in name order, as before the ends were ordered
        # by position; an end outside ``vertices`` is named as it was given,
        # after the loop and duplicate checks
        with pytest.raises(ValueError) as err:
            subdivide(vertices, edges)
        assert type(err.value) is ValueError and str(err.value) == message

    def test_ends_follow_the_vertex_order(self):
        g = subdivide(["b", "a", "c"], [("a", "b"), ("c", "a")])
        assert g.right == ("b|a", "a|c")
        assert g.edges == (("b", "b|a"), ("a", "b|a"), ("a", "a|c"), ("c", "a|c"))

    @pytest.mark.parametrize("n", [11, 12])
    def test_edge_2p_leaves_the_smaller_index(self, n):
        # "10" sorts before "2" as a string, and no longer decides the order
        g = subdivided_complete(n)
        pairs = list(combinations(range(n), 2))
        assert g.right == tuple(f"{i}|{j}" for i, j in pairs)
        assert g.edges == tuple((str(x), f"{i}|{j}") for i, j in pairs for x in (i, j))
        assert [x for x, _ in g.ends[::2]] == [i for i, _ in pairs]
        assert _edge_arcs(g)[::2] == pairs and _edge_arcs(g)[1::2] == [(j, i) for i, j in pairs]


class TestTournaments:
    def test_clockwise_small(self):
        t3 = clockwise_tournament(3)
        assert count_directed_cycles(t3, 3) == 1
        assert count_directed_cycles(clockwise_tournament(5), 3) == 5
        with pytest.raises(InvalidParameter):
            clockwise_tournament(4)

    def test_clockwise_four_cycles(self):
        assert count_directed_cycles(clockwise_tournament(7), 4) == 28

    def test_quadratic_residue(self):
        qr7 = quadratic_residue_tournament(7)
        assert qr7.out_neighbours[0] == frozenset({1, 2, 4})
        assert count_directed_cycles(qr7, 3) == 14
        assert count_directed_cycles(qr7, 4) == 21
        assert isomorphic_arcs(quadratic_residue_tournament(3),
                               clockwise_tournament(3))
        with pytest.raises(InvalidParameter):
            quadratic_residue_tournament(9)
        with pytest.raises(InvalidParameter):
            quadratic_residue_tournament(5)

    def test_diagonal_method_agrees(self):
        for t in (clockwise_tournament(5), clockwise_tournament(7),
                  quadratic_residue_tournament(7), clockwise_tournament(9)):
            assert directed_four_cycles_by_diagonals(t) == \
                count_directed_cycles(t, 4)

    def test_trace_count_matches_oracles_on_every_tournament_on_five_vertices(self):
        pairs = list(combinations(range(5), 2))
        for bits in product((0, 1), repeat=len(pairs)):
            assert_counts_match_oracles(
                Tournament(5, tuple((i, j) if b else (j, i) for (i, j), b in zip(pairs, bits))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 7, 8, 9])
    def test_trace_count_matches_oracles_on_seeded_tournaments(self, n):
        # the transitive tournament: every count is 0
        assert_counts_match_oracles(Tournament(n, tuple(combinations(range(n), 2))))
        rng = random.Random(n)
        for _ in range(10):
            assert_counts_match_oracles(Tournament(n, tuple(
                (i, j) if rng.random() < 0.5 else (j, i) for i, j in combinations(range(n), 2))))

    def test_count_rejects_other_lengths(self):
        with pytest.raises(ValueError):
            count_directed_cycles(clockwise_tournament(5), 5)

    def test_three_cycle_formula_all_regular_n7(self):
        count = 0
        for t in regular_tournaments(7):
            count += 1
            assert count_directed_cycles(t, 3) == 7 * 3 * 4 // 6
        assert count == 2640

    def test_regular_counts(self):
        assert sum(1 for _ in regular_tournaments(3)) == 2
        assert sum(1 for _ in regular_tournaments(5)) == 24

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_regular_tournaments_are_the_regular_labelled_ones(self, n):
        # each regular orientation of K_n once, in product order, and nothing
        # else: the regular rows of all 2^C(n,2) bit masks, brute-forced in
        # numpy (first pair most significant, bit 1 = arc (i, j))
        pairs = list(combinations(range(n), 2))
        masks = np.arange(1 << len(pairs), dtype=np.int32)
        out = np.zeros((n, len(masks)), dtype=np.int8)
        for p, (i, j) in enumerate(pairs):
            bit = (masks >> (len(pairs) - 1 - p) & 1).astype(np.int8)
            out[i] += bit
            out[j] += 1 - bit
        regular = masks[(out == (n - 1) // 2).all(axis=0)].tolist()
        want = [Tournament(n, tuple((i, j) if m >> (len(pairs) - 1 - p) & 1 else (j, i)
                                    for p, (i, j) in enumerate(pairs))).arcs
                for m in regular]
        assert [t.arcs for t in regular_tournaments(n)] == want

    def test_one_vertex_has_one_regular_tournament(self):
        assert [(t.n, t.arcs) for t in regular_tournaments(1)] == [(1, ())]

    def test_json_round_trip(self):
        # what ``gnorm tournament`` writes names the same tournament
        t = clockwise_tournament(5)
        assert Tournament(**json.loads(json.dumps(t.to_json()))).arcs == t.arcs

    def test_validation(self):
        with pytest.raises(ValueError):
            Tournament(3, ((0, 1), (1, 0), (1, 2)))

    @pytest.mark.parametrize("n, arcs, message", [
        (3, ((0, 1), (1, 2), (2, 3)), r"bad arc \(2, 3\)"),
        (3, ((0, 1), (1, 1), (0, 2)), r"bad arc \(1, 1\)"),
        (3, ((-1, 0), (0, 1), (1, 2)), r"bad arc \(-1, 0\)"),
        (3, ((0, 1), (1, 0), (1, 2)), r"pair \{1, 0\} oriented twice"),
        (3, ((0, 1), (0, 1), (1, 2)), r"pair \{0, 1\} oriented twice"),
        (3, ((0, 1), (1, 2)), "every pair needs exactly one arc"),
        (4, ((0, 1), (1, 2), (2, 0), (0, 3), (1, 3)), "every pair needs exactly one arc"),
        (-1, (), "every pair needs exactly one arc"),
    ])
    def test_each_fault_has_its_error(self, n, arcs, message):
        with pytest.raises(ValueError, match=message):
            Tournament(n, arcs)

    def test_valid_arcs_are_stored_sorted(self):
        t = Tournament(3, ((2, 0), (1, 2), (0, 1)))
        assert t.arcs == ((0, 1), (1, 2), (2, 0))
        assert Tournament(0, ()).arcs == Tournament(1, ()).arcs == ()


def enumerated_directed_cycles(t: Tournament, m: int) -> int:
    """Directed 3- or 4-cycles by enumeration over vertex subsets: each
    4-subset is checked in its three cyclic orders and both directions (at
    most one direction of a cycle can be present)."""
    arcs = set(t.arcs)

    def has(x, y):
        return (x, y) in arcs

    count = 0
    if m == 3:
        for a, b, c in combinations(range(t.n), 3):
            if has(a, b) and has(b, c) and has(c, a):
                count += 1
            elif has(b, a) and has(c, b) and has(a, c):
                count += 1
        return count
    for quad in combinations(range(t.n), 4):
        a = quad[0]
        for x, y, z in ((quad[1], quad[2], quad[3]),
                        (quad[1], quad[3], quad[2]),
                        (quad[2], quad[1], quad[3])):
            if has(a, x) and has(x, y) and has(y, z) and has(z, a):
                count += 1
            elif has(x, a) and has(y, x) and has(z, y) and has(a, z):
                count += 1
    return count


def directed_four_cycles_by_diagonals(t: Tournament) -> int:
    """Directed 4-cycles through their diagonals: a cycle x -> u -> y -> w -> x
    has the opposite vertices x, y joined by a 2-path each way."""
    total = 0
    outs = t.out_neighbours
    ins = [set() for _ in range(t.n)]
    for x, y in t.arcs:
        ins[y].add(x)
    for x in range(t.n):
        for y in range(x + 1, t.n):
            total += len(outs[x] & ins[y]) * len(outs[y] & ins[x])
    return total // 2


def assert_counts_match_oracles(t: Tournament) -> None:
    assert count_directed_cycles(t, 3) == enumerated_directed_cycles(t, 3), t
    assert count_directed_cycles(t, 4) == enumerated_directed_cycles(t, 4) == \
        directed_four_cycles_by_diagonals(t), t


def isomorphic_arcs(t1: Tournament, t2: Tournament) -> bool:
    from itertools import permutations
    return any(
        {(p[x], p[y]) for x, y in t1.arcs} == set(t2.arcs)
        for p in permutations(range(t1.n))
    )


class TestSubdivisionBridge:
    def test_triangle_round_trip(self):
        t3 = clockwise_tournament(3)
        g, col = colouring_from_tournament(t3)
        assert isomorphic(g, cycle(6))
        assert kappa_alternating(g, col, 6) == 1
        assert tournament_from_colouring(g, col).arcs == t3.arcs

    def test_counts_match_formulas(self):
        t5 = clockwise_tournament(5)
        g, col = colouring_from_tournament(t5)
        assert kappa_alternating(g, col, 6) == 5
        t7 = clockwise_tournament(7)
        g, col = colouring_from_tournament(t7)
        assert kappa_alternating(g, col, 8) == 28

    def test_balanced_iff_regular(self):
        t5 = clockwise_tournament(5)
        g, col = colouring_from_tournament(t5)
        assert is_balanced(g, col)
        lopsided = Tournament(3, ((0, 1), (0, 2), (1, 2)))
        g, col = colouring_from_tournament(lopsided)
        assert not is_balanced(g, col)

    def test_colouring_equals_the_name_parsing_reading(self):
        # the bridge layout against reading the "i|j" vertex names, on every
        # labelled tournament with n <= 5 and three on 7 and 11 vertices; on
        # 11 too, edge 2p of the pair {2, 10} is from 2 and its mid is "2|10"
        def by_names(t):
            g, arcs = subdivided_complete(t.n), set(t.arcs)
            tail_of = {mid: x if (int(x), int(y)) in arcs else y
                       for mid in g.right for x, y in [mid.split("|")]}
            return g, EdgeColouring(tuple(int(u == tail_of[mid]) for u, mid in g.edges))

        cases = [Tournament(n, tuple((i, j) if b else (j, i)
                                     for (i, j), b in zip(combinations(range(n), 2), bits)))
                 for n in range(2, 6) for bits in product((0, 1), repeat=comb(n, 2))]
        cases += [clockwise_tournament(7), quadratic_residue_tournament(7),
                  quadratic_residue_tournament(11)]
        for t in cases:
            assert colouring_from_tournament(t) == by_names(t), t

    def test_a_relabelled_copy_gives_the_same_tournament(self):
        # names "v0", ... and "m0", ...: left index i is vertex i, whatever
        # its name, so no name is parsed
        for t in [clockwise_tournament(5), quadratic_residue_tournament(7),
                  quadratic_residue_tournament(11)]:
            g, col = colouring_from_tournament(t)
            name = {v: f"v{i}" for i, v in enumerate(g.left)}
            name |= {v: f"m{i}" for i, v in enumerate(g.right)}
            h = BipartiteGraph(tuple(name[v] for v in g.left), tuple(name[v] for v in g.right),
                               tuple((name[u], name[v]) for u, v in g.edges))
            assert tournament_from_colouring(h, col) == tournament_from_colouring(g, col) == t

    def test_unbalanced_mid_rejected(self):
        g = subdivided_complete(3)
        with pytest.raises(ValueError, match="share colour"):
            tournament_from_colouring(g, EdgeColouring((1, 1, 1, 0, 1, 0)))


class TestSetInclusion:
    def test_hexagon(self):
        assert isomorphic(set_inclusion_graph(3, 2, 1), cycle(6))

    def test_degrees(self):
        g = set_inclusion_graph(4, 3, 1)
        assert is_biregular(g)
        assert g.degrees[0] == 3 and g.degrees[-1] == 3
        g = set_inclusion_graph(6, 3, 2)
        assert g.degrees[0] == comb(3, 2)
        assert g.degrees[-1] == comb(4, 1)

    def test_complete_minus_matching(self):
        g = set_inclusion_graph(4, 3, 1)
        # each 3-set misses exactly one point: K_{4,4} minus a matching
        missing = {(u, v) for u in g.left for v in g.right
                   if (u, v) not in set(g.edges)}
        assert len(missing) == 4

    def test_kneser(self):
        assert isomorphic(bipartite_kneser(3, 1), cycle(6))
        h52 = bipartite_kneser(5, 2)
        assert len(h52.left) == len(h52.right) == 10
        assert h52.degrees == (3,) * 20
        with pytest.raises(InvalidParameter):
            bipartite_kneser(4, 2)

    def test_guards(self):
        with pytest.raises(InvalidParameter):
            set_inclusion_graph(3, 3, 1)


class TestBridgeOnArbitraryTournaments:
    def test_kappa_matches_directed_cycles_without_regularity(self):
        # the alternating-cycle correspondence needs no balance at branch
        # vertices, so it holds for arbitrary tournaments
        rng = random.Random(6)
        for n in (4, 6, 7):
            for _ in range(5):
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                arcs = tuple((i, j) if rng.random() < 0.5 else (j, i)
                             for i, j in pairs)
                t = Tournament(n, arcs)
                g, col = colouring_from_tournament(t)
                assert kappa_alternating(g, col, 6) == count_directed_cycles(t, 3)
                assert kappa_alternating(g, col, 8) == count_directed_cycles(t, 4)


class TestBetaBalanceHigherDimensions:
    def test_dimension_six(self):
        q6 = hypercube(6)
        assert is_balanced(q6, hypercube_beta(6))
        assert is_balanced(q6, hypercube_alpha(6))


class TestTransitivityTournamentEquivalence:
    def test_colouring_transitive_iff_arc_transitive(self):
        # the colouring of a subdivided complete graph is transitive exactly
        # when the defining tournament is arc-transitive, read off the
        # side-preserving group of subdivided K_n by the test oracle
        from gnorm.config import RunConfig
        from gnorm.symmetry import _all_automorphisms, _edge_table, _transitive_under
        cases = [(clockwise_tournament(3), True), (clockwise_tournament(5), False),
                 (clockwise_tournament(7), False), (quadratic_residue_tournament(7), True)]
        for t, arc_transitive in cases:
            g, col = colouring_from_tournament(t)
            table = _edge_table(g, _all_automorphisms(g, RunConfig(side_swap=False)))
            assert _arc_transitive(table, col.colours) == arc_transitive
            # the colouring of a regular tournament is balanced
            assert is_balanced(g, col)
            table = _edge_table(g, _all_automorphisms(g, RunConfig()))
            assert _transitive_under(table, col.colours) == arc_transitive
