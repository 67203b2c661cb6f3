"""Cycle enumeration against independent oracles, colour classes, and the
counting laws' reference maxima against all colourings."""

import sys
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnorm import certify
from gnorm.config import RunConfig
from gnorm.errors import CapExceeded
from gnorm.graphs import (
    BipartiteGraph,
    EdgeColouring,
    _balanced_rows,
    _colouring_rows,
    complete_bipartite,
    cycle,
    girth,
    iter_balanced_colourings,
)
from gnorm.cycles import (
    _class_counts,
    _pattern_scores,
    _row,
    classify_4cycles,
    enumerate_cycles,
    four_cycles_generate_cycle_space,
    kappa_alternating,
)
from gnorm.constructions import (
    hypercube,
    hypercube_alpha,
    hypercube_beta,
    set_inclusion_graph,
)

from conftest import complement, disjoint_union, small_bipartite


def brute_four_cycles(g: BipartiteGraph) -> int:
    """Count 4-cycles by scanning vertex 4-subsets."""
    adj = {v: set() for v in g.vertices}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    count = 0
    for quad in combinations(g.vertices, 4):
        for a, b, c, d in ((quad[0], quad[1], quad[2], quad[3]),
                           (quad[0], quad[1], quad[3], quad[2]),
                           (quad[0], quad[2], quad[1], quad[3])):
            if b in adj[a] and c in adj[b] and d in adj[c] and a in adj[d]:
                count += 1
    return count


def assert_cycle_matrix(cycles, n_cycles: int, length: int) -> None:
    """The one form of a cycle set: a C-contiguous intp matrix of edge
    indices, one cycle per row."""
    assert isinstance(cycles, np.ndarray) and cycles.dtype == np.intp
    assert cycles.flags.c_contiguous
    assert cycles.shape == (n_cycles, length)


# enumerate_cycles's rows in canonical order, pinned so that any change to
# the order or to where a row starts shows
Q4_SQUARES = (
    (0, 4, 7, 1), (0, 5, 12, 2), (0, 6, 20, 3), (1, 8, 13, 2), (1, 9, 21, 3),
    (2, 14, 22, 3), (4, 5, 15, 10), (4, 6, 23, 11), (7, 8, 17, 10), (7, 9, 25, 11),
    (10, 19, 27, 11), (5, 6, 24, 16), (12, 13, 17, 15), (12, 14, 28, 16),
    (15, 19, 30, 16), (8, 9, 26, 18), (13, 14, 29, 18), (17, 19, 31, 18),
    (20, 21, 25, 23), (20, 22, 28, 24), (23, 27, 30, 24), (21, 22, 29, 26),
    (25, 27, 31, 26), (28, 30, 31, 29))
K44_SQUARES = (
    (0, 4, 5, 1), (0, 4, 6, 2), (0, 4, 7, 3), (0, 8, 9, 1), (0, 8, 10, 2),
    (0, 8, 11, 3), (0, 12, 13, 1), (0, 12, 14, 2), (0, 12, 15, 3), (1, 5, 6, 2),
    (1, 5, 7, 3), (1, 9, 10, 2), (1, 9, 11, 3), (1, 13, 14, 2), (1, 13, 15, 3),
    (2, 6, 7, 3), (2, 10, 11, 3), (2, 14, 15, 3), (4, 8, 9, 5), (4, 8, 10, 6),
    (4, 8, 11, 7), (4, 12, 13, 5), (4, 12, 14, 6), (4, 12, 15, 7), (5, 9, 10, 6),
    (5, 9, 11, 7), (5, 13, 14, 6), (5, 13, 15, 7), (6, 10, 11, 7), (6, 14, 15, 7),
    (8, 12, 13, 9), (8, 12, 14, 10), (8, 12, 15, 11), (9, 13, 14, 10),
    (9, 13, 15, 11), (10, 14, 15, 11))
K33_HEXAGONS = (
    (0, 3, 4, 7, 8, 2), (0, 3, 5, 8, 7, 1), (0, 6, 7, 4, 5, 2), (0, 6, 8, 5, 4, 1),
    (1, 4, 3, 6, 8, 2), (1, 7, 6, 3, 5, 2))


class TestEnumeration:
    def test_cycle_counts(self, c6):
        assert_cycle_matrix(enumerate_cycles(c6, 6), 1, 6)
        assert_cycle_matrix(enumerate_cycles(c6, 4), 0, 4)

    def test_q4_count_and_oracle(self):
        q4 = hypercube(4)
        cycles = enumerate_cycles(q4, 4)
        assert_cycle_matrix(cycles, 24, 4)
        assert len(cycles) == 24 == brute_four_cycles(q4)

    def test_oracle_on_random_subgraphs(self):
        for mask in range(1, 2 ** 9, 5):
            g = small_bipartite(mask)
            if g is None:
                continue
            assert len(enumerate_cycles(g, 4)) == brute_four_cycles(g)

    @pytest.mark.parametrize("g, length, pinned", [
        (hypercube(4), 4, Q4_SQUARES), (complete_bipartite(4, 4), 4, K44_SQUARES),
        (complete_bipartite(3, 3), 6, K33_HEXAGONS)], ids=["Q4-4", "K44-4", "K33-6"])
    def test_cycles_are_simple_and_distinct(self, g, length, pinned):
        cycles = enumerate_cycles(g, length)
        assert_cycle_matrix(cycles, len(pinned), length)
        assert cycles.tolist() == [list(row) for row in pinned]
        seen = set()
        for ec in cycles.tolist():
            # consecutive edges share an end, and the ends are distinct
            ends = [set(g.edges[i]) for i in ec]
            assert all(ends[k] & ends[(k + 1) % length] for k in range(length))
            assert len(set().union(*ends)) == length
            key = frozenset(ec)
            assert key not in seen
            seen.add(key)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_cycles(hypercube(4), 4, RunConfig(cap_cycles=5))

    def test_rejects_odd_length(self, c6):
        with pytest.raises(ValueError):
            enumerate_cycles(c6, 5)

    @pytest.mark.parametrize("graph, length", [
        (hypercube(4), 4), (hypercube(4), 6), (hypercube(4), 8),
        (complete_bipartite(3, 4), 6), (cycle(10), 10)])
    def test_cycles_come_in_lexicographic_order_of_their_vertex_walks(self, graph, length):
        # vertex i of a cycle is the end its edges i - 1 and i share; every
        # walk starts at its least vertex, and its second vertex precedes
        # its last
        walks = []
        for ec in enumerate_cycles(graph, length):
            ends = [set(graph.ends[i]) for i in ec]
            walk = [(ends[k - 1] & ends[k]).pop() for k in range(length)]
            assert walk[0] == min(walk) and walk[1] < walk[-1]
            walks.append(walk)
        assert walks == sorted(walks) and len(set(map(tuple, walks))) == len(walks)

    def test_the_walk_is_not_bounded_by_the_recursion_limit(self):
        # the search places C_600's vertices one level each; with the limit
        # a little above this test's own depth, a walk that recursed once per
        # level would raise RecursionError
        g = cycle(600)
        want = enumerate_cycles(g, 600)
        frame, depth = sys._getframe(), 0
        while frame is not None:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(depth + 50, 200))
        try:
            got = enumerate_cycles(g, 600)
        finally:
            sys.setrecursionlimit(limit)
        assert np.array_equal(got, want) and len(want) == 1


class TestKappa:
    def test_examples(self, c6):
        alt = EdgeColouring((1, 0, 1, 0, 1, 0))
        assert kappa_alternating(c6, alt, 6) == 1
        assert kappa_alternating(c6, EdgeColouring((1,) * 6), 6) == 0
        assert kappa_alternating(hypercube(4), hypercube_alpha(4), 4) == 16

    @given(bits=st.integers(0, 2 ** 8 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conjugation_invariance(self, bits):
        g = cycle(8)
        a = EdgeColouring(tuple(bits >> i & 1 for i in range(8)))
        for length in (4, 6, 8):
            assert kappa_alternating(g, a, length) == \
                kappa_alternating(g, complement(a), length)


def oracle_class_counts(matrix: np.ndarray, cycles) -> np.ndarray:
    """The class counts by the formula ``_class_counts`` replaced: gather a
    (rows x cycles x length) block, class every cycle from two sums over it,
    then count the classes with a (rows x cycles x 4) one-hot comparison."""
    cycles = np.asarray(cycles, dtype=np.intp)
    classes = np.zeros((len(matrix), len(cycles)), dtype=np.int8)
    if cycles.size:
        length = cycles.shape[1]
        edge_colours = matrix[:, cycles]
        ones = edge_colours.sum(axis=2, dtype=np.int16)
        # with half the edges coloured 1, the cycle alternates exactly when
        # every other edge has the same colour
        every_other = edge_colours[:, :, ::2].sum(axis=2, dtype=np.int16)
        half = 2 * ones == length
        classes = np.full(ones.shape, 4, dtype=np.int8)
        classes[half] = 3
        classes[half & ((every_other == 0) | (every_other == ones))] = 1
        classes[(ones == 0) | (ones == length)] = 2
    return (classes[:, :, None] == np.arange(1, 5, dtype=np.int8)).sum(axis=1)


def classes_one_at_a_time(matrix: np.ndarray, cycles) -> np.ndarray:
    """``(rows x cycles)`` class (1 to 4) of each cycle under each row, from
    ``_class_counts`` called on that cycle alone."""
    columns = []
    for cyc in cycles:
        counts = _class_counts(matrix, [cyc])
        assert (counts.sum(axis=1) == 1).all()
        columns.append(counts.argmax(axis=1) + 1)
    return np.column_stack(columns)


def oracle_rows(n_edges: int, seed: int) -> np.ndarray:
    """Random colourings, then the all-0, all-1 and two edge-parity rows."""
    rng = np.random.default_rng(seed)
    parity = np.arange(n_edges) % 2
    special = np.array([np.zeros(n_edges), np.ones(n_edges), parity, 1 - parity])
    random_rows = rng.integers(0, 2, size=(200, n_edges))
    return np.vstack((random_rows, special)).astype(np.int8)


class TestClassKernelOracle:
    """``_class_counts`` against the gather-and-one-hot formula, exactly."""

    @staticmethod
    def assert_matches(matrix, cycles):
        got, want = _class_counts(matrix, cycles), oracle_class_counts(matrix, cycles)
        assert got.dtype == want.dtype
        assert got.shape == want.shape == (len(matrix), 4)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("graph, length", [
        (hypercube(4), 4), (complete_bipartite(4, 4), 4), (complete_bipartite(3, 3), 6),
    ], ids=["Q4-4", "K44-4", "K33-6"])
    def test_short_cycles(self, graph, length):
        cycles = enumerate_cycles(graph, length)
        matrix = oracle_rows(graph.n_edges, graph.n_edges + length)
        self.assert_matches(matrix, cycles)
        self.assert_matches(matrix[:1], cycles)

    # C40 has more edges than any default cap admits (32 for balanced
    # colourings, 24 for full scans); C130 is longer than the kernel's int8
    # counts hold
    @pytest.mark.parametrize("length", [10, 20, 40, 130])
    def test_girth_cycles(self, length):
        cycles = enumerate_cycles(cycle(length), length)
        assert len(cycles) == 1
        matrix = oracle_rows(length, length)
        # the last six rows: monochromatic twice, alternating twice, then two
        # rotations of half 1s, half 0s
        half = [1] * (length // 2) + [0] * (length // 2)
        matrix = np.vstack((matrix, np.roll(half, 1), np.roll(half, 3))).astype(np.int8)
        counts = _class_counts(matrix, cycles)
        assert counts[-6:].tolist() == [[0, 1, 0, 0], [0, 1, 0, 0], [1, 0, 0, 0],
                                        [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0]]
        self.assert_matches(matrix, cycles)
        self.assert_matches(matrix[-1:], cycles)

    def test_empty_cycle_list(self, c6):
        matrix = oracle_rows(6, 0)
        for cycles in (enumerate_cycles(c6, 4), np.zeros((0, 6), dtype=np.intp)):
            self.assert_matches(matrix, cycles)
            self.assert_matches(matrix[:1], cycles)
            assert not _class_counts(matrix, cycles).any()


class TestClassification:
    def test_hypercube_profiles(self):
        q4 = hypercube(4)
        pa = classify_4cycles(q4, hypercube_alpha(4))
        pb = classify_4cycles(q4, hypercube_beta(4))
        assert (pa.c1, pa.c2, pa.c3, pa.c4) == (16, 8, 0, 0)
        assert (pb.c1, pb.c2, pb.c3, pb.c4) == (8, 0, 16, 0)
        # consistency identities for balanced colourings with no three-one cycle
        for prof in (pa, pb):
            assert 4 * prof.c1 + 2 * prof.c3 == 64
            assert prof.c1 == prof.c2 + 8

    def test_adjacent_pair(self, c4):
        prof = classify_4cycles(c4, EdgeColouring((1, 1, 0, 0)))
        assert (prof.c1, prof.c2, prof.c3, prof.c4) == (0, 0, 1, 0)

    @pytest.mark.parametrize("length", [6, 8])
    def test_classify_cycle_matches_definitions(self, length):
        cyc = enumerate_cycles(cycle(length), length)[0]
        space = list(product((0, 1), repeat=length))
        classes = classes_one_at_a_time(np.array(space, dtype=np.int8), [cyc])[:, 0]
        for colours, cls in zip(space, classes.tolist()):
            c = [colours[i] for i in cyc]
            alternating = all(c[i] != c[i - 1] for i in range(length))
            law_holds = sum(c) in (0, length // 2, length)
            assert (cls == 1) == alternating
            assert (cls == 2) == (sum(c) in (0, length))
            assert (cls != 4) == law_holds

    @pytest.mark.parametrize("graph, length", [
        (hypercube(4), 4), (complete_bipartite(4, 4), 4), (complete_bipartite(3, 3), 6),
    ], ids=["Q4-4", "K44-4", "K33-6"])
    def test_class_kernel_matches_definitions(self, graph, length):
        # the four classes written out edge by edge, on random colourings
        cycles = enumerate_cycles(graph, length)
        rng = np.random.default_rng(length * graph.n_edges)
        matrix = rng.integers(0, 2, size=(200, graph.n_edges), dtype=np.int8)
        matrix[0], matrix[1] = 0, 1     # the monochromatic colourings
        classes = classes_one_at_a_time(matrix, cycles)
        assert classes.shape == (200, len(cycles))
        for row, colours in zip(classes, matrix.tolist()):
            want = []
            for cyc in cycles:
                c = [colours[i] for i in cyc]
                if all(c[i] != c[i - 1] for i in range(length)):
                    want.append(1)
                elif len(set(c)) == 1:
                    want.append(2)
                elif 2 * sum(c) == length:
                    want.append(3)
                else:
                    want.append(4)
            assert row.tolist() == want, colours
        counts = _class_counts(matrix, cycles)
        assert counts.tolist() == [[list(row).count(k) for k in (1, 2, 3, 4)]
                                   for row in classes.tolist()]

    def test_components_sum_to_total(self):
        q4 = hypercube(4)
        total = len(enumerate_cycles(q4, 4))
        for bits in (0, 17, 255, 2 ** 31, 2 ** 32 - 1):
            a = EdgeColouring(tuple(bits >> i & 1 for i in range(32)))
            prof = classify_4cycles(q4, a)
            assert prof.c1 + prof.c2 + prof.c3 + prof.c4 == total


def _even_edge_sets_of_k44():
    """The 511 nonempty edge sets of K_{4,4} in which every vertex has even
    degree, as edge bitmasks for ``small_bipartite(mask, 4, 4)``: the XORs of
    the nine 4-cycles through a0 and b0, a basis of the cycle space."""
    basis = [1 << 0 | 1 << j | 1 << 4 * i | 1 << 4 * i + j
             for i in range(1, 4) for j in range(1, 4)]
    for pick in range(1, 1 << len(basis)):
        mask = 0
        for k, vec in enumerate(basis):
            if pick >> k & 1:
                mask ^= vec
        yield mask


class TestMaximizers:
    def test_kappa_girth(self, c6):
        cycles = enumerate_cycles(c6, 6)
        kappa = _class_counts(np.array([(1, 0) * 3, (1,) * 6], np.int8), cycles)[:, 0]
        assert kappa.tolist() == [1, 0]
        assert kappa_alternating(c6, EdgeColouring((1, 0, 1, 0, 1, 0)), 6) == 1

    def test_pattern_score(self, c4, alt4, mono4):
        cycles = enumerate_cycles(c4, 4)
        matrix = np.array([alt4.colours, mono4.colours], np.int8)
        assert _pattern_scores(_class_counts(matrix, cycles)).tolist() == [1, -1]

    @pytest.mark.parametrize("g", [cycle(4), cycle(8), complete_bipartite(2, 4),
                                   complete_bipartite(4, 4), hypercube(4)],
                             ids=["C4", "C8", "K24", "K44", "Q4"])
    def test_argmax_is_the_first_balanced_maximiser(self, g):
        # each reference argmax is the first balanced colouring, in
        # enumeration order, that attains its maximum; every graph here has
        # ties, so a later maximiser would differ
        oracle = {}
        for a in iter_balanced_colourings(g):
            scores = {"kappa": kappa_alternating(g, a, int(girth(g)))}
            if girth(g) == 4:
                p = classify_4cycles(g, a)
                scores["pattern"] = p.c1 + p.c3 - p.c2
            for law, value in scores.items():
                best, first, ties = oracle.get(law, (None, None, 0))
                if best is None or value > best:
                    oracle[law] = (value, a.colours, 1)
                else:
                    oracle[law] = (best, first, ties + (value == best))
        refs, _ = certify._counting_refs(g, _balanced_rows(g), RunConfig())
        assert (refs.kappa_max, refs.kappa_argmax) == oracle["kappa"][:2]
        assert oracle["kappa"][2] > 1
        if "pattern" in oracle:
            assert (refs.pattern_max, refs.pattern_argmax) == oracle["pattern"][:2]
            assert oracle["pattern"][2] > 1
        else:
            assert refs.pattern_max is refs.pattern_argmax is None

    def test_counting_references_are_the_maxima_over_all_colourings(self, monkeypatch):
        # certify takes the counting laws' maxima over the balanced colourings
        # only; on every graph here that reaches the counting stage they equal
        # the maxima over all 2^e colourings
        graphs = [cycle(n) for n in range(4, 17, 2)]
        graphs += [complete_bipartite(2, n) for n in (4, 6, 8)] + [complete_bipartite(4, 4)]
        graphs += [small_bipartite(mask, 4, 4) for mask in _even_edge_sets_of_k44()]
        seen, refs_of = [], certify._counting_refs

        def spy(g, balanced, config):
            seen.append(refs_of(g, balanced, config))
            return seen[-1]

        monkeypatch.setattr(certify, "_counting_refs", spy)
        reached = 0
        for g in graphs:
            seen.clear()
            certify.certify_not_norming(g)
            if not seen:
                continue
            reached += 1
            [(refs, _)] = seen
            every = _colouring_rows(g.n_edges, 0, 1 << g.n_edges)
            kappa = _class_counts(every, enumerate_cycles(g, girth(g)))[:, 0]
            fours = enumerate_cycles(g, 4)
            pattern = _pattern_scores(_class_counts(every, fours)).max() if len(fours) else None
            assert (refs.kappa_max, refs.pattern_max) == (kappa.max(), pattern), g.edges
        assert reached == 246


class TestCycleSpace:
    def test_examples(self, c4, c6):
        assert four_cycles_generate_cycle_space(c4)
        assert not four_cycles_generate_cycle_space(c6)
        assert four_cycles_generate_cycle_space(set_inclusion_graph(5, 4, 1))

    def test_edge_indices_past_63(self, c6):
        # Q6 has 192 edges, so its bit masks outgrow any 64-bit integer; the
        # C6 after them adds a cycle that no 4-cycle spans
        q6 = hypercube(6)
        assert four_cycles_generate_cycle_space(q6)
        union, _ = disjoint_union([(q6, EdgeColouring((0,) * q6.n_edges)),
                                   (c6, EdgeColouring((0,) * 6))])
        assert union.n_edges == 198
        assert not four_cycles_generate_cycle_space(union)


def brute_potential(g: BipartiteGraph, a: EdgeColouring):
    verts = list(g.vertices)
    for bits in product((0, 1), repeat=len(verts)):
        beta = dict(zip(verts, bits))
        if all(a[i] == (beta[u] + beta[v]) % 2 for i, (u, v) in enumerate(g.edges)):
            return beta
    return None


class TestPotential:
    @given(mask=st.integers(1, 2 ** 9 - 1), bits=st.integers(0, 2 ** 9 - 1))
    @settings(max_examples=40, deadline=None)
    def test_four_cycle_parity_link(self, mask, bits):
        g = small_bipartite(mask)
        if g is None:
            return
        a = EdgeColouring(tuple(bits >> i & 1 for i in range(g.n_edges)))
        cycles4 = enumerate_cycles(g, 4)
        even_on_squares = all(
            sum(a[i] for i in cyc) % 2 == 0 for cyc in cycles4
        )
        present = brute_potential(g, a) is not None
        if present:
            assert even_on_squares
        if four_cycles_generate_cycle_space(g) and even_on_squares:
            assert present


class TestSmallHypercubeIdentities:
    def test_square_balanced_identities(self):
        # the 4-cycle is the 2-dimensional case: one 4-cycle, identities
        # c1 = c2 + 1 and 4c1 + 2c3 = 4 on balanced colourings without
        # a three-one square
        g = cycle(4)
        for col in iter_balanced_colourings(g):
            prof = classify_4cycles(g, col)
            if prof.c4 == 0:
                assert prof.c1 == prof.c2 + 1
                assert 4 * prof.c1 + 2 * prof.c3 == 4


class TestPatternScoreGlobalMax:
    def test_beta_attains_the_analytic_upper_bound(self):
        # each 4-cycle contributes at most +1 to c1 + c3 - c2, so 24 is a
        # global bound over all 2^32 colourings of the 4-cube; the
        # half-half colouring attains it
        q4 = hypercube(4)
        cycles = enumerate_cycles(q4, 4)
        scores = _pattern_scores(_class_counts(_row(hypercube_beta(4).colours), cycles))
        assert scores.tolist() == [len(cycles)] == [24]
