"""Density engine: pinned values, functional axioms, dual-path agreement,
closed trigonometric forms on phase step kernels, the perturbation series,
quadratic expansion."""

import cmath
import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnorm import density
from gnorm.config import RunConfig
from gnorm.errors import CapExceeded
from gnorm.graphs import (
    BipartiteGraph,
    EdgeColouring,
    _balanced_rows,
    complete_bipartite,
    cycle,
    is_balanced,
    star,
)
from gnorm.kernels import Decoration, StepKernel, phase_kernel
from gnorm.density import (
    expansion_tail_bound,
    rho_2m,
    s_max,
    second_order_expansion,
    t_decoration,
    t_density,
    two_path_integrals,
)
from gnorm.constructions import hypercube, hypercube_alpha, hypercube_beta

from conftest import broadcast_direct, complement, disjoint_union, path, small_bipartite


def oracle_density(g, colours, kernel, mode):
    """Independent evaluation: explicit loops over every grid assignment."""
    p, q = kernel.shape
    if mode == "transpose":
        q = p
    nl = len(g.left)
    vidx = g.vertex_index
    total = 0j
    count = 0
    for assign in product(*([range(p)] * nl + [range(q)] * (g.n_vertices - nl))):
        term = 1 + 0j
        for i, (u, v) in enumerate(g.edges):
            x, y = assign[vidx[u]], assign[vidx[v]]
            val = kernel.values[x][y]
            if colours[i] == 0:
                val = val.conjugate() if mode == "conjugate" else kernel.values[y][x]
            term *= val
        total += term
        count += 1
    return total / count


def rand_kernel(rng, p, q):
    return StepKernel(tuple(
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q))
        for _ in range(p)
    ))


def rand_real_kernel(rng, p, q):
    return StepKernel([[rng.uniform(-1, 1) for _ in range(q)] for _ in range(p)])


class TestPinnedValues:
    def test_constant_one(self, c4, alt4):
        assert t_density(c4, alt4, StepKernel.constant(1.0)) == 1

    def test_empty_graph_has_density_one(self):
        empty = BipartiteGraph((), (), ())
        assert t_density(empty, EdgeColouring(()), StepKernel([[2, 3]])) == 1
        # the route still checks the mode, with no edge to evaluate
        with pytest.raises(ValueError, match="mode must be one of"):
            t_density(empty, EdgeColouring(()), StepKernel([[2, 3]]), "bogus")

    def test_sign_kernel_half(self, c4, alt4):
        f = StepKernel([[1, 1], [1, -1]])
        val = t_density(c4, alt4, f)
        assert val == pytest.approx(0.5)
        assert oracle_density(c4, alt4, f, "conjugate") == pytest.approx(0.5)

    def test_imaginary_constants(self, c4, alt4, mono4):
        ci = StepKernel.constant(1j)
        assert t_density(c4, mono4, ci) == pytest.approx(1)   # i^4
        assert t_density(c4, alt4, ci) == pytest.approx(1)    # |i|^4
        # one conjugated edge: i^3 * (-i) = -1
        assert t_density(c4, EdgeColouring((1, 1, 1, 0)), ci) == pytest.approx(-1)

    def test_transpose_needs_square(self, c4, alt4):
        with pytest.raises(ValueError, match="transpose mode needs a square kernel"):
            t_density(c4, alt4, StepKernel(((1, 2),)), "transpose")

    def test_against_oracle(self):
        rng = random.Random(4)
        for g in (cycle(4), cycle(6), complete_bipartite(2, 3)):
            for mode in ("conjugate", "transpose"):
                f = rand_kernel(rng, 3, 3)
                col = EdgeColouring(tuple(rng.randint(0, 1) for _ in range(g.n_edges)))
                want = oracle_density(g, col, f, mode)
                for method in ("direct", "eliminate"):
                    got = t_density(g, col, f, mode, method)
                    assert got == pytest.approx(want, rel=1e-12)


class TestDecorations:
    def test_uniform_matches_density_bit_exactly(self, c6):
        rng = random.Random(8)
        f = rand_kernel(rng, 2, 3)
        col = EdgeColouring((1, 0, 0, 1, 1, 0))
        assert t_decoration(c6, col, Decoration.uniform(f, 6)) == \
            t_density(c6, col, f)

    def test_all_ones_edge_reduces_to_path(self, c4, alt4):
        # decorating one edge with the constant 1 integrates it out
        rng = random.Random(9)
        f = rand_kernel(rng, 2, 2)
        kernels = [f, f, f, StepKernel.constant(1.0, 2, 2)]
        val = t_decoration(c4, alt4, Decoration(tuple(kernels)))
        from conftest import path
        p3 = path(3)
        # the remaining three edges of the square form a 3-edge path whose
        # colouring inherits 1, 0, 1
        want = t_density(p3, EdgeColouring((1, 0, 1)), f)
        assert val == pytest.approx(want, rel=1e-10)

    def test_zero_kernel_wipes_out(self, c4, alt4):
        rng = random.Random(10)
        f = rand_kernel(rng, 2, 2)
        kernels = [f, f, StepKernel.constant(0.0, 2, 2), f]
        assert t_decoration(c4, alt4, Decoration(tuple(kernels))) == 0

    def test_real_multilinearity(self, c4, alt4):
        rng = random.Random(11)
        f, g2, h = (rand_kernel(rng, 2, 2) for _ in range(3))
        a = 0.375
        combined = [f, g2.add(h.scale(a)), f, f]
        base = [f, g2, f, f]
        bump = [f, h, f, f]
        lhs = t_decoration(c4, alt4, Decoration(tuple(combined)))
        rhs = t_decoration(c4, alt4, Decoration(tuple(base))) + \
            a * t_decoration(c4, alt4, Decoration(tuple(bump)))
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestAxioms:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_conjugation(self, seed):
        rng = random.Random(seed)
        g = cycle(6)
        f = rand_kernel(rng, 2, 2)
        a = EdgeColouring(tuple(rng.randint(0, 1) for _ in range(6)))
        lhs = t_density(g, complement(a), f)
        rhs = t_density(g, a, f).conjugate()
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_tensor_multiplicativity(self, seed):
        rng = random.Random(seed)
        g = cycle(4)
        f1, f2 = rand_kernel(rng, 2, 2), rand_kernel(rng, 2, 2)
        a = EdgeColouring(tuple(rng.randint(0, 1) for _ in range(4)))
        lhs = t_density(g, a, StepKernel(np.kron(f1.values, f2.values)))
        rhs = t_density(g, a, f1) * t_density(g, a, f2)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_real_kernel_colouring_independent(self):
        rng = random.Random(12)
        for g in (cycle(4), cycle(6)):
            f = StepKernel(
                [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(2)]
            )
            vals = {
                t_density(g, EdgeColouring(bits), f)
                for bits in product((0, 1), repeat=g.n_edges)
            }
            base = vals.pop()
            assert all(v == pytest.approx(base, rel=1e-12) for v in vals)


class TestDualPath:
    def test_q3_agreement(self):
        rng = random.Random(13)
        q3 = hypercube(3)
        f = rand_kernel(rng, 4, 4)
        col = EdgeColouring(tuple(rng.randint(0, 1) for _ in range(12)))
        d = t_density(q3, col, f, "conjugate", "direct")
        e = t_density(q3, col, f, "conjugate", "eliminate")
        assert d == pytest.approx(e, rel=1e-12)

    def test_direct_cap(self):
        q3 = hypercube(3)
        f = StepKernel.constant(1.0, 4, 4)
        with pytest.raises(CapExceeded):
            t_density(q3, EdgeColouring((1,) * 12), f, "conjugate", "direct",
                      RunConfig(cap_assignments=1000))


def _direct_graphs():
    union, _ = disjoint_union([(cycle(4), EdgeColouring((1, 0, 1, 0))),
                               (path(3), EdgeColouring((1, 1, 0)))])
    return {"C4": cycle(4), "C6": cycle(6), "P5": path(5), "K23": complete_bipartite(2, 3),
            "Q3": hypercube(3), "C4+P3": union}


DIRECT_GRAPHS = _direct_graphs()
DIRECT_BATCHES = [(), (1,), (7,), (3, 5)]


class TestBatchLastDirect:
    """``_evaluate_direct`` lays the product out batch last and sums each
    row from a contiguous copy; the oracle is the (*batch, *dims) broadcast
    it replaced, and the two must agree bit for bit."""

    @staticmethod
    def _assert_same_bits(g, factors, dims):
        want = np.asarray(broadcast_direct(g, factors, dims))
        got = density._evaluate_direct(g, factors, dims)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.reshape(-1).view(np.float64), want.reshape(-1).view(np.float64))

    @staticmethod
    def _factors(rng, batch, p, q, dtype, colours, mode):
        def draw():
            values = rng.uniform(-1, 1, (*batch, p, q))
            if dtype == np.complex128:
                values = values + 1j * rng.uniform(-1, 1, (*batch, p, q))
            return values
        return [density._colour_table(draw(), c, mode) for c in colours]

    @pytest.mark.parametrize("mode", density.MODES)
    @pytest.mark.parametrize("dtype", [np.complex128, np.float64], ids=["complex", "real"])
    @pytest.mark.parametrize("name", sorted(DIRECT_GRAPHS))
    def test_same_bits_as_the_broadcast(self, name, dtype, mode):
        g = DIRECT_GRAPHS[name]
        rng = np.random.default_rng([len(name), g.n_edges, mode == "conjugate"])
        shapes = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)
                  if mode == "conjugate" or p == q]
        for p, q in shapes:
            dims = density._dims(g, (p, q), mode)
            for batch in DIRECT_BATCHES:
                colours = rng.integers(0, 2, g.n_edges).tolist()
                self._assert_same_bits(g, self._factors(rng, batch, p, q, dtype, colours, mode),
                                       dims)

    @pytest.mark.parametrize("batch", [(300,), (2, 150)])
    def test_rows_summed_in_blocks(self, batch):
        # C4 at 2x2 has 16 assignments, so 300 rows are summed in two blocks
        # of density._SUM_BLOCK entries; Q3 at 3x3 (6561 assignments) sums
        # one row per block
        rng = np.random.default_rng(8)
        for g, p, rows in ((cycle(4), 2, batch), (hypercube(3), 3, (3,))):
            dims = density._dims(g, (p, p), "conjugate")
            colours = rng.integers(0, 2, g.n_edges).tolist()
            self._assert_same_bits(g, self._factors(rng, rows, p, p, np.complex128, colours,
                                                    "conjugate"), dims)

    @pytest.mark.parametrize("batch", [(), (1,)])
    def test_lone_row_of_1x1_kernels(self, batch):
        # the one-row resolution-1 call that ``_means`` describes: numpy
        # multiplies it in its scalar loop, in both layouts
        rng = np.random.default_rng(1)
        for name in sorted(DIRECT_GRAPHS):
            g = DIRECT_GRAPHS[name]
            colours = rng.integers(0, 2, g.n_edges).tolist()
            self._assert_same_bits(g, self._factors(rng, batch, 1, 1, np.complex128, colours,
                                                    "conjugate"), [1] * g.n_vertices)


class TestColouringScans:
    def test_smax_real_kernel(self, c4):
        f = StepKernel([[0.3, 0.9], [0.7, 0.2]])
        res = s_max(c4, f)
        want = abs(t_density(c4, EdgeColouring((1,) * 4), f))
        assert res.value == pytest.approx(want)
        assert res.argmax.colours == (0, 0, 0, 0)  # ties resolve to lex-least

    def test_smax_complex_balanced_attains(self, c4, alt4):
        # the max ties between the monochromatic and alternating colourings,
        # so the lex-least argmax is unbalanced; a balanced one still attains
        f = StepKernel(((1, 1j), (1j, 1)))
        res = s_max(c4, f)
        brute = max(
            abs(t_density(c4, EdgeColouring(bits), f))
            for bits in product((0, 1), repeat=4)
        )
        assert res.value == pytest.approx(brute)
        assert abs(t_density(c4, alt4, f)) == pytest.approx(res.value)
        assert res.argmax.colours == (0, 0, 0, 0)

    def test_smax_constant(self, c6):
        res = s_max(c6, StepKernel.constant(0.5 + 0.5j))
        assert res.value == pytest.approx(abs(0.5 + 0.5j) ** 6)

    def test_rho_symmetric_real(self, c4):
        f = StepKernel([[0.3, 0.9], [0.9, 0.2]])
        t = abs(t_density(c4, EdgeColouring((1,) * 4), f, "transpose"))
        for m in (1, 2, 3):
            assert rho_2m(c4, f, m, "transpose") == \
                pytest.approx(16 ** (1 / (2 * m)) * t)

    @pytest.mark.parametrize("m", [0, -1, 1.5, 2.0, True, "2"])
    def test_rho_refuses_an_m_that_is_not_a_positive_int(self, c4, m):
        with pytest.raises(ValueError, match="^m must be a positive integer$"):
            rho_2m(c4, StepKernel([[0.3, 0.9], [0.9, 0.2]]), m, "transpose")

    def test_rho_single_edge(self):
        g = star(1)
        f = StepKernel([[0.25, 0.5], [0.75, 1.0]])
        t1 = t_density(g, EdgeColouring((1,)), f, "transpose").real
        t0 = t_density(g, EdgeColouring((0,)), f, "transpose").real
        assert rho_2m(g, f, 1, "transpose") == pytest.approx(
            math.sqrt(t1 ** 2 + t0 ** 2))

    def test_rho_dominates_envelope(self, c4):
        rng = random.Random(14)
        for _ in range(5):
            f = StepKernel(
                [[rng.uniform(-1, 1) for _ in range(2)] for _ in range(2)]
            )
            q = s_max(c4, f, "transpose").value
            prev = None
            for m in (1, 2, 4, 8):
                val = rho_2m(c4, f, m, "transpose")
                assert val >= q - 1e-9
                if prev is not None:
                    assert val <= prev + 1e-9  # decreasing towards the max
                prev = val
            assert rho_2m(c4, f, 16, "transpose") == pytest.approx(q, rel=0.2)


def loop_s_max(g, f, mode, method="auto", config=RunConfig()):
    """The per-colouring loop the sweep replaced: one t_density call per
    colouring in product order, and the largest |t| with the first colouring
    within 1e-12 (relative) of it, so last-bit rounding picks no other."""
    cols = [EdgeColouring(bits) for bits in product((0, 1), repeat=g.n_edges)]
    vals = [abs(t_density(g, a, f, mode, method, config)) for a in cols]
    best = max(vals)
    return best, next(a for a, v in zip(cols, vals) if v >= best * (1 - 1e-12))


def loop_rho_2m(g, f, m, mode, method="auto"):
    """The per-colouring power sum the sweep replaced."""
    total = sum(t_density(g, EdgeColouring(bits), f, mode, method) ** (2 * m)
                for bits in product((0, 1), repeat=g.n_edges))
    return max(total.real, 0.0) ** (1.0 / (2 * m))


def sweep_values(g, f, mode, method, config=RunConfig()):
    """Every colouring's value from the chunked sweep, in product order."""
    chunks = list(density._sweep(g, f, mode, method, config, "test sweep"))
    assert [start for start, _ in chunks] == \
        [sum(len(v) for _, v in chunks[:k]) for k in range(len(chunks))]
    return np.concatenate([v for _, v in chunks])


def split_budgets(g, shape, mode):
    """The least budget of each split k that the planner picks, from 0 open
    edges to every edge that fits 1 << 30 entries per step.  The kernel may
    have one side other than 2, r, so every step's width is 2^i r^j."""
    widest = density._route(g, shape, mode, "eliminate", RunConfig(), 1 << 30).row_width
    r = max(shape)
    budgets = sorted({2 ** i * r ** j for i in range(widest.bit_length())
                      for j in range(widest.bit_length()) if 2 ** i * r ** j <= widest})
    splits = {}
    for budget in budgets:
        k = density._route(g, shape, mode, "eliminate", RunConfig(), budget).open_edges
        splits.setdefault(k, budget)
    return splits


def _two_cycles():
    g, _ = disjoint_union([(cycle(4), EdgeColouring((0,) * 4)),
                           (cycle(6), EdgeColouring((0,) * 6))])
    return g


def random_bipartite(seed):
    """A seeded subgraph of K_{m,n} with 2 <= m, n <= 7, isolated vertices
    dropped."""
    rng = random.Random(f"elimination-order:{seed}")
    m, n = rng.randint(2, 7), rng.randint(2, 7)
    return small_bipartite(rng.randrange(1, 1 << (m * n)), m, n)


# K23 and the random graphs R1, R16 and R48 are planned along the order
# whose fill ties go to the fewest absorbed edges
# (TestSweepPlan::test_the_changed_sweep_plans)
SWEEP_GRAPHS = {
    "star1": star(1),
    "C4": cycle(4),
    "K23": complete_bipartite(2, 3),
    "Q3": hypercube(3),
    "C4+C6": _two_cycles(),
    "R1": random_bipartite(1),
    "R16": random_bipartite(16),
    "R48": random_bipartite(48),
}


class TestSweep:
    """The chunked colouring sweep against the per-colouring loop."""

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    @pytest.mark.parametrize("mode", ["conjugate", "transpose"])
    @pytest.mark.parametrize("method", ["direct", "eliminate"])
    def test_every_value_matches_t_density(self, name, mode, method):
        g = SWEEP_GRAPHS[name]
        rng = random.Random(f"{name}:{mode}:{method}")
        shapes = [(2, 2)] if mode == "transpose" else [(2, 2), (2, 3)]
        for p, q in shapes:
            f = rand_kernel(rng, p, q)
            want = [t_density(g, EdgeColouring(bits), f, mode, method)
                    for bits in product((0, 1), repeat=g.n_edges)]
            got = sweep_values(g, f, mode, method)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("name, g, p", [
        ("C8", cycle(8), 3),
        ("K24", complete_bipartite(2, 4), 5),
        ("Q3", hypercube(3), 3),
        ("K23", complete_bipartite(2, 3), 3),
        ("R0", random_bipartite(0), 3),
        ("R17", random_bipartite(17), 3),
    ])
    def test_density_shapes_match_the_loop(self, name, g, p, monkeypatch):
        # values that a symmetry ties exactly (24 colourings of R0 at seed 0)
        # round differently along different plans; the maximiser does not
        for seed in range(3):
            rng = random.Random(f"{name}:{seed}")
            f = rand_kernel(rng, p, p)
            res = s_max(g, f)
            best, best_col = loop_s_max(g, f, "conjugate")
            assert res.value == pytest.approx(best, rel=1e-12)
            assert res.argmax == best_col
            with monkeypatch.context() as m:
                m.setattr(density, "_elimination_order",
                          lambda scopes, n, fewest_edges=False: ref_elimination_order(scopes, n))
                assert s_max(fresh(g), f).row == res.row
        h = StepKernel(
            [[rng.uniform(-1, 1) for _ in range(p)] for _ in range(p)])
        assert rho_2m(g, h, 2, "transpose") == \
            pytest.approx(loop_rho_2m(g, h, 2, "transpose"), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    @pytest.mark.parametrize("mode", ["conjugate", "transpose"])
    def test_every_split_of_the_colours(self, name, mode, monkeypatch):
        # every budget that changes the split: each k the planner can pick,
        # from 0 (every colouring a leading row) to e (one row of all), with
        # the 2^(e-k) leading rows in chunks
        g = SWEEP_GRAPHS[name]
        e = g.n_edges
        f = rand_kernel(random.Random(f"{name}:{mode}:split"),
                        2, 3 if mode == "conjugate" else 2)
        want = [t_density(g, EdgeColouring(bits), f, mode, "eliminate")
                for bits in product((0, 1), repeat=e)]
        splits = split_budgets(g, f.shape, mode)
        assert min(splits) == 0 and max(splits) == e
        for k, budget in sorted(splits.items()):
            monkeypatch.setattr(density, "_SWEEP_BUDGET", budget)
            chunks = list(density._sweep(g, f, mode, "eliminate", RunConfig(), "split"))
            assert len(chunks) == 1 << (e - k)
            got = np.concatenate([v for _, v in chunks])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            if mode == "conjugate":
                # a and its complement give exact conjugates, so s_max sees
                # their tie
                assert np.array_equal(got[::-1], got.conj())

    def test_q3_real_kernel_ties_everywhere(self, monkeypatch):
        # conj(f) = f, so all 4096 colourings give one value and the
        # lexicographically least maximiser is the all-zeros colouring
        monkeypatch.setattr(density, "_SWEEP_BUDGET", 1 << 10)
        q3 = hypercube(3)
        rng = random.Random(21)
        f = StepKernel([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        chunks = list(density._sweep(q3, f, "conjugate", "eliminate", RunConfig(), "ties"))
        assert len(chunks) > 4
        vals = np.concatenate([v for _, v in chunks])
        assert len(vals) == 4096 and np.all(vals == vals[0])
        res = s_max(q3, f, "conjugate", "eliminate")
        assert res.argmax.colours == (0,) * 12
        assert res.value == abs(vals[0])

    def test_q3_maximum_in_a_later_chunk(self, monkeypatch):
        # the maximiser (row 710) lies after the fourth chunk's start, and
        # its complement, which ties exactly, lies in a later chunk
        monkeypatch.setattr(density, "_SWEEP_BUDGET", 1 << 10)
        q3 = hypercube(3)
        rng = random.Random(0)
        f = StepKernel(tuple(
            tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
            for _ in range(3)))
        starts = [s for s, _ in density._sweep(q3, f, "conjugate", "eliminate",
                                               RunConfig(), "later")]
        res = s_max(q3, f, "conjugate", "eliminate")
        row = int("".join(map(str, res.argmax.colours)), 2)
        assert row == 710 and row >= starts[3]
        here, there = np.searchsorted(starts, [row, 4095 - row], side="right")
        assert here < there
        best, best_col = loop_s_max(q3, f, "conjugate", "eliminate")
        assert res.argmax == best_col
        assert res.value == pytest.approx(best, rel=1e-12)
        assert abs(t_density(q3, complement(res.argmax), f)) == \
            pytest.approx(res.value, rel=1e-12)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_conjugate_half_against_the_whole_sweep(self, name, real, monkeypatch):
        # at every split, from every colouring a leading row (k = 0, the
        # first half of the rows chunked) to one row of all (k = e, edge 0's
        # colour axis of size 1): the half sweep is the whole sweep's first
        # half bit for bit, at the whole sweep's chunk boundaries, and s_max
        # names the whole sweep's first colouring within _TIE_RTOL of its
        # largest |t|, with that colouring's own |t|
        g = SWEEP_GRAPHS[name]
        half = 1 << (g.n_edges - 1)
        rng = random.Random(f"{name}:{real}:half")
        f = (rand_real_kernel if real else rand_kernel)(rng, 2, 3)
        splits = split_budgets(g, f.shape, "conjugate")
        assert min(splits) == 0 and max(splits) == g.n_edges
        for k, budget in sorted(splits.items()):
            monkeypatch.setattr(density, "_SWEEP_BUDGET", budget)
            whole = list(density._sweep(g, f, "conjugate", "eliminate", RunConfig(), "whole"))
            part = list(density._sweep(g, f, "conjugate", "eliminate", RunConfig(), "half",
                                       first_half=True))
            assert [s for s, _ in part] == [s for s, _ in whole if s < half]
            got = np.concatenate([v for _, v in part])
            vals = np.concatenate([v for _, v in whole])
            assert got.dtype == vals.dtype == np.complex128
            assert np.array_equal(got, vals[:half])
            mags = np.abs(vals)
            row = int(np.argmax(mags >= mags.max() * (1 - density._TIE_RTOL)))
            res = s_max(g, f, "conjugate", "eliminate")
            assert (res.value, res.row) == (float(mags[row]), row)

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    @pytest.mark.parametrize("mode", ["conjugate", "transpose"])
    @pytest.mark.parametrize("method", ["direct", "eliminate"])
    def test_a_real_kernel_sweeps_in_float64(self, name, mode, method, monkeypatch):
        # every factor, every einsum step and every sum of a real kernel's
        # sweep is float64.  Its values match the complex128 sweep of the same
        # kernel and t_density's complex128 evaluation of each colouring to
        # 1e-12 relative to that colouring's condition scale t_a(|f|), the
        # mean of |product| over the assignments, which bounds |t_a(f)|.
        # Near cancellation the value itself is no scale: R48 in transpose
        # mode has a t_a of -8.9e-10 against a largest 4.7e-4, where the
        # complex128 routes differ from each other, and t_density from the
        # exact value, by 1e-11 relative
        g = SWEEP_GRAPHS[name]
        f = rand_real_kernel(random.Random(f"{name}:{mode}:real"),
                             2, 3 if mode == "conjugate" else 2)
        want = [t_density(g, EdgeColouring(bits), f, mode, "eliminate")
                for bits in product((0, 1), repeat=g.n_edges)]
        scale = sweep_values(g, StepKernel(np.abs(f.array())), mode, method).real
        with monkeypatch.context() as m:
            m.setattr(StepKernel, "is_real", property(lambda self: False))
            wide = sweep_values(g, f, mode, method)
        dtypes = set()
        evaluate, einsum = density._evaluate, np.einsum

        def evaluate_spy(route, g, factors):
            dtypes.update(fac.dtype for fac in factors)
            out = evaluate(route, g, factors)
            dtypes.add(out.dtype)
            return out

        def einsum_spy(*args):
            out = einsum(*args)
            dtypes.add(out.dtype)
            return out

        monkeypatch.setattr(density, "_evaluate", evaluate_spy)
        monkeypatch.setattr(np, "einsum", einsum_spy)
        got = sweep_values(g, f, mode, method)
        assert dtypes == {np.dtype(np.float64)}
        assert got.dtype == np.complex128
        assert np.all(np.abs(got - wide) <= 1e-12 * scale)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestSweepWork:
    """How many colourings a sweep contracts, counted by a spy on
    ``density._evaluate``: a batch row is one colouring prefix, and each open
    edge's factor multiplies the row by its colour axis (2, or 1 for edge
    0's colour-0 table alone)."""

    @staticmethod
    def _contracted(monkeypatch, fn, *args):
        counts = []
        evaluate = density._evaluate

        def spy(route, g, factors):
            e, k = g.n_edges, route.open_edges
            rows = factors[0].shape[0] if k < e else 1
            counts.append(rows * math.prod(fac.shape[0] for fac in factors[e - k:]))
            return evaluate(route, g, factors)

        with monkeypatch.context() as m:
            m.setattr(density, "_evaluate", spy)
            fn(*args)
        return sum(counts), len(counts)

    @pytest.mark.parametrize("name, g, p, budget", [
        ("C8", cycle(8), 3, None),
        ("K24", complete_bipartite(2, 4), 5, None),
        ("Q3", hypercube(3), 3, 1 << 10),
    ])
    def test_conjugate_s_max_contracts_half(self, name, g, p, budget, monkeypatch):
        # C8 and K_{2,4} open every edge at the default budget; Q3 at 1 << 10
        # keeps leading rows, in more than one chunk
        if budget is not None:
            monkeypatch.setattr(density, "_SWEEP_BUDGET", budget)
        e = g.n_edges
        rng = random.Random(f"{name}:work")
        f, h = rand_kernel(rng, p, p), rand_real_kernel(rng, p, p)
        k = density._route(g, f.shape, "conjugate", "eliminate", RunConfig(),
                           density._SWEEP_BUDGET).open_edges
        assert (k == e) == (budget is None)
        total, calls = self._contracted(monkeypatch, s_max, g, f, "conjugate", "eliminate")
        assert total == 1 << (e - 1)
        assert (calls == 1) if k == e else (calls > 1)
        assert self._contracted(monkeypatch, s_max, g, f, "transpose", "eliminate")[0] == 1 << e
        for mode, kernel in [("conjugate", f), ("transpose", h)]:
            assert self._contracted(monkeypatch, rho_2m, g, kernel, 2, mode, "eliminate")[0] \
                == 1 << e


class TestSweepCaps:
    """The sweep raises the loop's caps, with the same numbers, before any
    contraction."""

    @staticmethod
    def _no_contraction(monkeypatch):
        def refuse(*args):
            raise AssertionError("contracted before the cap was checked")
        monkeypatch.setattr(density, "_evaluate_direct", refuse)
        monkeypatch.setattr(density, "_evaluate_eliminate", refuse)

    @staticmethod
    def _caught(fn, *args):
        with pytest.raises(CapExceeded) as info:
            fn(*args)
        return info.value.stage, info.value.needed, info.value.cap

    def test_colouring_cap(self, c4, monkeypatch):
        self._no_contraction(monkeypatch)
        f = StepKernel.constant(1.0, 2, 2)
        cfg = RunConfig(cap_colourings=3)
        assert self._caught(s_max, c4, f, "conjugate", "auto", cfg) == \
            ("colouring maximisation", 4, 3)
        assert self._caught(rho_2m, c4, f, 1, "transpose", "auto", cfg) == \
            ("colouring power sum", 4, 3)

    def test_colouring_cap_comes_before_the_mode(self, c4, monkeypatch):
        # the sweep counts the colourings before _route reads the mode
        self._no_contraction(monkeypatch)
        f = StepKernel.constant(1.0, 2, 2)
        assert self._caught(s_max, c4, f, "bogus", "auto", RunConfig(cap_colourings=3)) == \
            ("colouring maximisation", 4, 3)
        with pytest.raises(ValueError, match="mode must be one of"):
            s_max(c4, f, "bogus")

    @pytest.mark.parametrize("method, cap", [("direct", 200), ("eliminate", 50)])
    def test_route_caps_match_the_loop(self, method, cap, monkeypatch):
        q3 = hypercube(3)
        p = 2 if method == "direct" else 3
        f = rand_kernel(random.Random(5), p, p)
        cfg = RunConfig(cap_assignments=cap)
        want = self._caught(t_density, q3, EdgeColouring((0,) * 12), f,
                            "conjugate", method, cfg)
        assert want[0] == ("direct density evaluation" if method == "direct"
                           else "elimination width")
        self._no_contraction(monkeypatch)
        assert self._caught(s_max, q3, f, "conjugate", method, cfg) == want
        assert self._caught(rho_2m, q3, f, 1, "conjugate", method, cfg) == want

    @pytest.mark.parametrize("method", ["direct", "eliminate"])
    def test_caps_count_one_colouring_not_a_chunk(self, method):
        # a cap equal to one evaluation's widest step lets the sweep run,
        # though each chunk holds many colourings
        q3 = hypercube(3)
        f = rand_kernel(random.Random(6), 2, 2)
        # with no colour axis open, a route's row width is one evaluation's
        cap = density._route(q3, f.shape, "conjugate", method, RunConfig()).row_width
        cfg = RunConfig(cap_assignments=cap)
        res = s_max(q3, f, "conjugate", method, cfg)
        assert res.argmax == loop_s_max(q3, f, "conjugate", method, cfg)[1]
        with pytest.raises(CapExceeded):
            s_max(q3, f, "conjugate", method, RunConfig(cap_assignments=cap - 1))


def fresh(g):
    """An equal graph object on which no plan has been made."""
    return BipartiteGraph(g.left, g.right, g.edges)


def raised(fn, *args):
    """The CapExceeded a call raises, as (type, message, stage, needed, cap)."""
    with pytest.raises(CapExceeded) as info:
        fn(*args)
    exc = info.value
    return type(exc), str(exc), exc.stage, exc.needed, exc.cap


# the sweep graphs, and the bench's graphs at their kernel sizes
MEMO_CASES = [(name, g, shape, mode)
              for name, g in sorted(SWEEP_GRAPHS.items())
              for shape, mode in [((2, 3), "conjugate"), ((2, 2), "transpose")]] + [
    (name, g, (p, p), mode)
    for name, g, p in [("C8", cycle(8), 3), ("K24", complete_bipartite(2, 4), 5),
                       ("Q3", SWEEP_GRAPHS["Q3"], 3)]
    for mode in density.MODES]
MEMO_IDS = [f"{name}-{p}x{q}-{mode}" for name, _, (p, q), mode in MEMO_CASES]


class TestPlanMemo:
    """An elimination plan is made once per graph object, grid and budget,
    and the caps are still raised on every call, as a fresh plan raises them."""

    @pytest.mark.parametrize("name, g, shape, mode", MEMO_CASES, ids=MEMO_IDS)
    def test_a_memoised_route_equals_a_fresh_one(self, name, g, shape, mode):
        splits = split_budgets(g, shape, mode)
        assert min(splits) == 0 and max(splits) == g.n_edges
        for budget in sorted(set(splits.values()) | {0, density._SWEEP_BUDGET}):
            route = density._route(g, shape, mode, "eliminate", RunConfig(), budget)
            assert density._route(g, shape, mode, "eliminate", RunConfig(), budget) is route
            cold = fresh(g)
            assert cold.elimination_plans == {}
            want = density._route(cold, shape, mode, "eliminate", RunConfig(), budget)
            assert route._asdict() == want._asdict()

    @pytest.mark.parametrize("name, g, shape, mode", MEMO_CASES, ids=MEMO_IDS)
    def test_a_warm_plan_raises_the_width_cap_of_a_fresh_one(self, name, g, shape, mode):
        f = rand_kernel(random.Random(f"{name}:{mode}:memo-cap"), *shape)
        a = EdgeColouring((0,) * g.n_edges)
        # default-config calls warm the memo, for the sweep and for one colouring
        s_max(g, f, mode, "eliminate")
        t_density(g, a, f, mode, "eliminate")
        widest = density._route(g, shape, mode, "eliminate", RunConfig()).row_width
        cfg = RunConfig(cap_assignments=widest - 1)
        calls = [(s_max, f, mode, "eliminate", cfg),
                 (rho_2m, f, 1, mode, "eliminate", cfg),
                 (lambda g, *rest: t_density(g, a, *rest), f, mode, "eliminate", cfg)]
        for fn, *rest in calls:
            got = raised(fn, g, *rest)
            assert got == raised(fn, fresh(g), *rest)
            assert got[2:] == ("elimination width", widest, widest - 1)

    def test_a_warm_plan_raises_the_scope_cap_of_a_fresh_one(self):
        # C4's steps come first and are 8 entries wide; K_{52,52}'s first
        # step spans 53 vertices, one more than there are einsum letters
        g, _ = disjoint_union([(cycle(4), EdgeColouring((0,) * 4)),
                               (complete_bipartite(52, 52), EdgeColouring((0,) * 2704))])
        a = EdgeColouring((0,) * g.n_edges)
        f = StepKernel.constant(1.0, 2, 2)
        big = 1 << 60
        # the default config refuses K_{52,52}'s first step by its width,
        # and the plan is kept all the same
        assert raised(t_density, g, a, f, "conjugate", "eliminate")[2:] == \
            ("elimination width", 1 << 53, RunConfig().cap_assignments)
        assert len(g.elimination_plans) == 1
        for cap, want in [(big, ("elimination scope", 53, 52)),
                          (4, ("elimination width", 8, 4))]:
            args = (f, "conjugate", "eliminate", RunConfig(cap_assignments=cap))
            got = raised(t_density, g, a, *args)
            assert got == raised(t_density, fresh(g), a, *args)
            assert got[0] is CapExceeded and got[2:] == want

    def test_each_graph_object_plans_once_per_grid_and_budget(self, monkeypatch):
        calls = []
        order = density._elimination_order

        def counted(scopes, n, **kw):
            calls.append((n, kw.get("fewest_edges", False)))
            return order(scopes, n, **kw)

        monkeypatch.setattr(density, "_elimination_order", counted)
        rng = random.Random(26)
        g = cycle(8)
        a = EdgeColouring((0, 1) * 4)
        f = rand_kernel(rng, 3, 3)
        h = StepKernel([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        r = rand_kernel(rng, 2, 3)

        def run(g):
            return (s_max(g, f), rho_2m(g, h, 2, "transpose"),
                    t_density(g, a, f, "conjugate", "eliminate"),
                    t_density(g, a, r, "conjugate", "eliminate"))

        first = run(g)
        assert all(run(g) == first for _ in range(2))
        # s_max and rho_2m share the 3^8 grid and the sweep budget, whose plan
        # orders twice (minimum fill, then with ties to the fewest absorbed
        # edges); the two t_density calls plan at budget 0, ordering once, on
        # the 3^8 and 2^4 3^4 grids
        assert set(g.elimination_plans) == {
            ((3,) * 8, density._SWEEP_BUDGET), ((3,) * 8, 0), ((2,) * 4 + (3,) * 4, 0)}
        plans = [(8, False), (8, True), (8, False), (8, False)]
        assert calls == plans
        again = cycle(8)
        assert again == g and again is not g
        assert run(again) == first
        assert calls == plans * 2


def ref_elimination_order(scopes, n):
    """The greedy minimum-fill order with each candidate's fill counted one
    pair of live neighbours at a time: the reference for
    ``density._elimination_order``."""
    nbr = {v: set() for v in range(n)}
    for sc in scopes:
        for x in sc:
            nbr[x] |= sc - {x}
    alive = set(range(n))
    order = []
    while alive:
        best_v, best_fill = None, None
        for v in sorted(alive):
            ns = nbr[v] & alive
            fill = sum(1 for x in ns for y in ns if x < y and y not in nbr[x])
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
        v = best_v
        ns = nbr[v] & alive
        for x in ns:
            nbr[x] |= ns - {x}
        alive.remove(v)
        order.append(v)
    return order


class TestEliminationOrder:
    """The fill count by neighbourhood intersections gives the order that
    counting pair by pair gave."""

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_the_order_on_the_sweep_graphs(self, name):
        g = SWEEP_GRAPHS[name]
        scopes = [frozenset(sc) for sc in g.ends]
        assert density._elimination_order(scopes, g.n_vertices) == \
            ref_elimination_order(scopes, g.n_vertices)

    def test_the_order_on_random_bipartite_graphs(self):
        for seed in range(50):
            g = random_bipartite(seed)
            scopes = [frozenset(sc) for sc in g.ends]
            assert density._elimination_order(scopes, g.n_vertices) == \
                ref_elimination_order(scopes, g.n_vertices), seed


def ref_factor_order(scopes, n, fewest_edges=False):
    """The greedy minimum-fill order read from the live factors themselves,
    each a vertex set and the number of edges it holds: a candidate's step
    merges the factors that hold it, its fill is the pairs of their other
    vertices that share no factor, and with ``fewest_edges`` a tie goes to
    the step merging the fewest edges before the smallest vertex.  The
    reference for ``density._elimination_order``, both ways."""
    factors = [(set(sc), 1) for sc in scopes]
    order = []
    while len(order) < n:
        best = None
        for v in sorted(set(range(n)) - set(order)):
            group = [(sc, c) for sc, c in factors if v in sc]
            ns = set().union(*(sc for sc, _ in group)) - {v}
            fill = sum(1 for x in ns for y in ns
                       if x < y and not any({x, y} <= sc for sc, _ in factors))
            edges = sum(c for _, c in group)
            key = (fill, edges if fewest_edges else 0, v)
            if best is None or key < best[0]:
                best = key, edges, ns
        (*_, v), edges, ns = best
        factors = [(sc, c) for sc, c in factors if v not in sc] + [(ns, edges)]
        order.append(v)
    return order


def sweep_entries(route, g, colours=2):
    """Each step's (entries, operands), read from the shapes its operands
    would have: an open edge's factor is a (colours, d_left, d_right) stack,
    so ``colours`` 1 gives one colouring's step widths."""
    e, k = g.n_edges, route.open_edges
    shapes = [((colours,) if i >= e - k else ()) + (route.dims[x], route.dims[y])
              for i, (x, y) in enumerate(g.ends)]
    steps = []
    for operands, subscripts in route.steps:
        inputs, output = subscripts.split("->")
        size = {}
        for sub, slot in zip(inputs.split(","), operands):
            assert sub.startswith("...") and len(sub) - 3 == len(shapes[slot])
            for letter, d in zip(sub[3:], shapes[slot]):
                assert size.setdefault(letter, d) == d
        steps.append((math.prod(size.values()), len(operands)))
        shapes.append(tuple(size[letter] for letter in output[3:]))
    return steps


def sweep_cost(route, g):
    """Step entries times operands over every step of a whole sweep: the
    2^(e-k) leading rows each run every step."""
    return sum(n * ops for n, ops in sweep_entries(route, g)) << (g.n_edges - route.open_edges)


def min_fill_route(g, shape, mode, budget, monkeypatch):
    """The route planned on a fresh copy of g along the reference minimum-fill
    order alone, whatever ``fewest_edges`` asks."""
    with monkeypatch.context() as m:
        m.setattr(density, "_elimination_order",
                  lambda scopes, n, fewest_edges=False: ref_elimination_order(scopes, n))
        return density._route(fresh(g), shape, mode, "eliminate", RunConfig(), budget)


def sweep_route(g, shape, mode="conjugate"):
    return density._route(fresh(g), shape, mode, "eliminate", RunConfig(), density._SWEEP_BUDGET)


PLAN_CASES = [(name, g, shape) for name, g in sorted(SWEEP_GRAPHS.items())
              for shape in [(2, 2), (2, 3), (3, 3)]] + [
    ("C8", cycle(8), (3, 3)), ("K24", complete_bipartite(2, 4), (5, 5)),
    ("Q3", hypercube(3), (3, 3))]
PLAN_IDS = [f"{name}-{p}x{q}" for name, _, (p, q) in PLAN_CASES]


class TestSweepPlan:
    """A sweep plan (budget > 0) takes the order whose fill ties go to the
    fewest absorbed edges only when it opens as many colour axes, costs no
    more step entries and has no wider step for one colouring than the
    minimum-fill plan; budget-0 plans keep the minimum-fill order."""

    @staticmethod
    def _check(g, shape, monkeypatch):
        chosen = sweep_route(g, shape)
        base = min_fill_route(g, shape, "conjugate", density._SWEEP_BUDGET, monkeypatch)
        assert chosen.open_edges >= base.open_edges
        assert sweep_cost(chosen, g) <= sweep_cost(base, g)
        assert max(n for n, _ in sweep_entries(chosen, g, 1)) <= \
            max(n for n, _ in sweep_entries(base, g, 1))
        for route in (chosen, base):
            assert route.row_width == max(n for n, _ in sweep_entries(route, g))
            assert route.row_width <= density._SWEEP_BUDGET or route.open_edges == 0
        # budget 0: the reference minimum-fill plan, step for step
        assert density._route(fresh(g), shape, "conjugate", "eliminate", RunConfig()) == \
            min_fill_route(g, shape, "conjugate", 0, monkeypatch)
        return chosen, base

    @pytest.mark.parametrize("name, g, shape", PLAN_CASES, ids=PLAN_IDS)
    def test_the_sweep_plan_is_never_worse(self, name, g, shape, monkeypatch):
        self._check(g, shape, monkeypatch)

    @pytest.mark.parametrize("p", [2, 3])
    def test_the_sweep_plan_on_random_bipartite_graphs(self, p, monkeypatch):
        changed = 0
        for seed in range(50):
            chosen, base = self._check(random_bipartite(seed), (p, p), monkeypatch)
            changed += chosen != base
        assert changed == {2: 30, 3: 33}[p]

    def test_the_sweep_order_against_its_reference(self):
        graphs = [*SWEEP_GRAPHS.values(), cycle(8), complete_bipartite(2, 4), hypercube(3),
                  *(random_bipartite(seed) for seed in range(50))]
        for g in graphs:
            scopes = [frozenset(sc) for sc in g.ends]
            n = g.n_vertices
            assert density._elimination_order(scopes, n, fewest_edges=True) == \
                ref_factor_order(scopes, n, fewest_edges=True)
            assert density._elimination_order(scopes, n) == ref_factor_order(scopes, n) == \
                ref_elimination_order(scopes, n)

    def test_k24_at_p5_is_pinned(self, monkeypatch):
        # minimum fill eliminates a0 while its factors hold 7 edges, where
        # b3 ties it on fill and absorbs 2; after b3, a0 absorbs all 8 edges
        # but spans 2 vertices, not 3.  Each plan's last vertex is summed by
        # the step before it, which saves that step's 2^8 * 5 entries
        g = complete_bipartite(2, 4)
        base = min_fill_route(g, (5, 5), "conjugate", density._SWEEP_BUDGET, monkeypatch)
        chosen = sweep_route(g, (5, 5))
        assert (base.open_edges, base.row_width, sweep_cost(base, g)) == (8, 16000, 79800)
        assert (chosen.open_edges, chosen.row_width, sweep_cost(chosen, g)) == (8, 6400, 29600)
        scopes = [frozenset(sc) for sc in g.ends]
        assert density._elimination_order(scopes, 6) == [2, 3, 4, 0, 1, 5]
        assert density._elimination_order(scopes, 6, fewest_edges=True) == [2, 3, 4, 5, 0, 1]

    @pytest.mark.parametrize("name, g", [
        *((name, SWEEP_GRAPHS[name]) for name in ("K23", "R1", "R16", "R48")),
        ("R0", random_bipartite(0)), ("R17", random_bipartite(17))])
    def test_the_changed_sweep_plans(self, name, g, monkeypatch):
        # the sweep-versus-loop tests run these graphs on a plan of their own
        for shape, mode in [((2, 3), "conjugate"), ((2, 2), "transpose"),
                            ((3, 3), "conjugate")]:
            assert sweep_route(g, shape, mode) != \
                min_fill_route(g, shape, mode, density._SWEEP_BUDGET, monkeypatch)

    @pytest.mark.parametrize("budget", [0, density._SWEEP_BUDGET])
    def test_planning_stops_at_the_first_step_over_the_letters(self, budget, monkeypatch):
        # every vertex of K_{52,52} has 52 neighbours, so the first step
        # spans 53 vertices: one vertex is ordered, and the plan is refused
        calls = []
        order = density._elimination_order

        def kept(scopes, n, **kw):
            calls.append(order(scopes, n, **kw))
            return calls[-1]

        monkeypatch.setattr(density, "_elimination_order", kept)
        plan = density._elimination_plan(complete_bipartite(52, 52), [1] * 104, budget)
        assert plan == (None, ((1, 53),))
        assert calls == [[0]]


def summed_letters(subscripts):
    """The letters a step sums: those of its inputs that its output leaves
    out, in order."""
    inputs, output = subscripts.split("->")
    return sorted(set(inputs.replace(",", "").replace(".", "")) - set(output))


def unfold(steps, e):
    """The per-vertex steps that a route's steps fold: a step that sums the
    letters s_1..s_j keeps s_2..s_j in its output, and one-operand steps then
    sum them one at a time.  A step that sums no letter, the outer product of
    the components' sums, is kept as it is."""
    unfolded, slot = [], list(range(e))
    for operands, subscripts in steps:
        inputs, output = subscripts.split("->")
        summed = summed_letters(subscripts)
        kept = output + "".join(summed[1:])
        unfolded.append((tuple(slot[s] for s in operands), f"{inputs}->{kept}"))
        for letter in summed[1:]:
            unfolded.append(((e + len(unfolded) - 1,), f"{kept}->{kept.replace(letter, '')}"))
            kept = kept.replace(letter, "")
        slot.append(e + len(unfolded) - 1)
    return unfolded


def run_steps(steps, factors):
    """One np.einsum per step, nothing shared: the reference for
    ``density._evaluate_eliminate``."""
    slots = list(factors)
    for operands, subscripts in steps:
        slots.append(np.einsum(subscripts, *[slots[s] for s in operands]))
    return slots[-1]


FOLD_CASES = [(name, g, (2, 3)) for name, g in sorted(SWEEP_GRAPHS.items())] + [
    ("C8", cycle(8), (3, 3)), ("K24", complete_bipartite(2, 4), (5, 5)),
    ("Q3", hypercube(3), (3, 3))] + [
    (f"R{seed}", random_bipartite(seed), (3, 3)) for seed in range(50)]


class TestFoldedSteps:
    """A step that would only sum a vertex out of the step before it is
    folded into that step, which leaves the vertex out of its output."""

    @pytest.mark.parametrize("budget", [0, density._SWEEP_BUDGET])
    def test_folded_steps_against_the_per_vertex_steps(self, budget):
        for name, g, shape in FOLD_CASES:
            e = g.n_edges
            route = density._route(fresh(g), shape, "conjugate", "eliminate", RunConfig(),
                                   budget)
            assert not any(len(ops) == 1 and ops[0] >= e for ops, _ in route.steps), name
            # every vertex is summed by one per-vertex step; the outer product
            # of the components' sums (the last step, if any) sums none
            unfolded = unfold(route.steps, e)
            summed = [len(summed_letters(sub)) for _, sub in unfolded]
            assert summed.count(1) == g.n_vertices, name
            assert set(summed[:-1]) == {1} and summed[-1] in (0, 1), name
            # three random colourings of the leading edges, the open edges'
            # colours on their axes, as a sweep contracts them
            rng = random.Random(f"{name}:{shape}:{budget}:fold")
            arr = rand_kernel(rng, *shape).array()
            k = route.open_edges
            bits = np.array([[rng.randrange(2) for _ in range(3)] for _ in range(e - k)],
                            dtype=np.intp)

            def factors(arr):
                tables = np.stack((arr.conj(), arr))
                return [tables[b] for b in bits] + [tables] * k

            got = density._evaluate_eliminate(route.steps, factors(arr))
            want = run_steps(unfolded, factors(arr))
            scale = run_steps(unfolded, factors(np.abs(arr))).real
            assert got.shape == want.shape == (3,) * (k < e) + (2,) * k, name
            assert np.all(np.abs(got - want) <= 1e-12 * scale), name


def einsum_calls(monkeypatch, fn, *args):
    """The np.einsum calls that fn makes, as (subscripts, operands) pairs."""
    calls = []
    einsum = np.einsum

    def spy(subscripts, *operands):
        calls.append((subscripts, operands))
        return einsum(subscripts, *operands)

    with monkeypatch.context() as m:
        m.setattr(np, "einsum", spy)
        fn(*args)
    return calls


class TestSharedSteps:
    """In a sweep every open edge's factor is the one stack of colour tables,
    so the steps over open edges alone that share their subscripts are one
    einsum call."""

    @pytest.mark.parametrize("name, g, p, calls", [
        ("C8", cycle(8), 3, (5, 4)),
        ("K24", complete_bipartite(2, 4), 5, (3, 2)),
        ("Q3", hypercube(3), 3, (16, 32)),
    ])
    def test_einsum_calls_per_sweep(self, name, g, p, calls, monkeypatch):
        # C8: 7 steps, of which (1, 2), (3, 4) and (5, 6) are one call, and
        # so is (0, 7) in rho_2m, where edge 0 takes the whole stack; K_{2,4}
        # the same with 4 + 1 steps; Q3 at 4 chunks (s_max) and 8 (rho_2m)
        # of 6 steps, the three over open edges alone one call
        rng = random.Random(f"{name}:einsum-calls")
        f, h = rand_kernel(rng, p, p), rand_real_kernel(rng, p, p)
        assert (len(einsum_calls(monkeypatch, s_max, g, f, "conjugate", "eliminate")),
                len(einsum_calls(monkeypatch, rho_2m, g, h, 2, "transpose", "eliminate"))) \
            == calls

    @pytest.mark.parametrize("name, g, p", [
        ("C8", cycle(8), 3), ("K24", complete_bipartite(2, 4), 5), ("Q3", hypercube(3), 3),
        *((name, SWEEP_GRAPHS[name], 3) for name in ("K23", "C4+C6", "R16"))])
    @pytest.mark.parametrize("budget", [1 << 10, density._SWEEP_BUDGET])
    def test_only_steps_over_the_open_tables_are_shared(self, name, g, p, budget,
                                                         monkeypatch):
        # a leading edge's factor, and conjugate-mode s_max's tables[:1] for
        # edge 0, is read by the one einsum call of the step that absorbs it;
        # the calls over open tables alone have distinct subscripts
        monkeypatch.setattr(density, "_SWEEP_BUDGET", budget)
        f = rand_kernel(random.Random(f"{name}:shared"), p, p)
        evaluate, seen = density._evaluate, []

        def spy(route, g, factors):
            calls = einsum_calls(monkeypatch, evaluate, route, g, factors)
            seen.append((route, factors, calls))
            return evaluate(route, g, factors)

        monkeypatch.setattr(density, "_evaluate", spy)
        s_max(g, f, "conjugate", "eliminate")
        assert seen
        for route, factors, calls in seen:
            tables = factors[-1]
            assert tables.shape[0] == 2 and route.open_edges > 0
            edges = [fac for fac in factors if fac is not tables]
            assert len(edges) == g.n_edges - route.open_edges + (route.open_edges == g.n_edges)
            for fac in edges:
                assert sum(any(op is fac for op in ops) for _, ops in calls) == 1
            shared = [sub for sub, ops in calls if all(op is tables for op in ops)]
            assert len(shared) == len(set(shared))
            over_tables = {sub for ops, sub in route.steps
                           if all(s < len(factors) and factors[s] is tables for s in ops)}
            assert set(shared) == over_tables
            assert len(calls) == len(route.steps) - sum(
                all(s < len(factors) and factors[s] is tables for s in ops)
                for ops, _ in route.steps) + len(over_tables)


class TestTrigDensity:
    @staticmethod
    def _h0_integral(g, bits):
        """The h0 edge product integrated vertex by vertex: a vertex with n1
        colour-1 and n0 colour-0 edges gives the mean of exp(2*pi*i*x*(n1 -
        n0)) over x, which is 1 when n1 = n0 and 0 otherwise."""
        net = dict.fromkeys(g.vertices, 0)
        for (u, v), c in zip(g.edges, bits):
            net[u] += 2 * c - 1
            net[v] += 2 * c - 1
        return int(not any(net.values()))

    @staticmethod
    def _kernels(g, k):
        """P = phase_kernel(p) with p one above the largest degree, and
        c*(P + conj P) for c = exp(2*pi*i/k): the step-kernel versions of
        exp(2*pi*i*(x+y)) and 2*c*cos(2*pi*(x+y))."""
        phase = phase_kernel(1 + max(g.degrees))
        return phase, phase.add(phase.conj()).scale(cmath.exp(2j * math.pi / k))

    def test_h0_balance_indicator(self):
        q4 = hypercube(4)
        rng = random.Random(23)
        named = [hypercube_alpha(4).colours, hypercube_beta(4).colours]
        flips = [c[:i] + (1 - c[i],) + c[i + 1:] for c in named for i in range(32)]
        seeded = [tuple(rng.randint(0, 1) for _ in range(32)) for _ in range(40)]
        cases = [(cycle(4), list(product((0, 1), repeat=4))),
                 (cycle(6), list(product((0, 1), repeat=6))),
                 (q4, named + flips + seeded)]
        for g, colourings in cases:
            phase, _ = self._kernels(g, 1)
            values = []
            for bits in colourings:
                a = EdgeColouring(bits)
                value = t_density(g, a, phase)
                want = self._h0_integral(g, bits)
                assert want == int(is_balanced(g, a)) and abs(value - want) < 1e-12
                values.append(want)
            # both values occur on every graph
            assert set(values) == {0, 1}, g.edges
        # alpha and beta are balanced, and flipping one edge unbalances them
        assert [self._h0_integral(q4, c) for c in named + flips] == [1, 1] + [0] * 64

    def test_hk_cycle_value(self, c4, alt4):
        # two balanced colourings and two colour-1 edges of four: phase 1
        _, hk = self._kernels(c4, 8)
        assert t_density(c4, alt4, hk) == pytest.approx(2, abs=1e-12)

    def test_hk_orientation_sum_on_hypercube(self):
        # 2970 balanced colourings of the 4-cube, all contributing one phase
        q4, beta = hypercube(4), hypercube_beta(4)
        _, hk = self._kernels(q4, 3)
        assert len(_balanced_rows(q4)) == 2970
        want = 2970 * cmath.exp(2j * math.pi * (2 * 16 - 32) / 3)
        assert abs(t_density(q4, beta, hk) - want) < 1e-12 * 2970

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_closed_forms_on_random_bipartite_graphs(self, seed):
        # subgraphs of K_{m,n} with m + n <= 8: odd and unequal degrees occur
        rng = random.Random(seed)
        m = rng.randint(1, 4)
        n = rng.randint(1, 8 - m)
        g = small_bipartite(rng.randrange(1, 1 << (m * n)), m, n)
        bits = tuple(rng.randint(0, 1) for _ in range(g.n_edges))
        a, k = EdgeColouring(bits), rng.choice((1, 2, 3, 8))
        phase, hk = self._kernels(g, k)
        assert abs(t_density(g, a, phase) - self._h0_integral(g, bits)) < 1e-12
        # N*exp(2*pi*i*(2w - e)/k): N balanced colourings, w colour-1 edges
        n_balanced = len(_balanced_rows(g))
        want = n_balanced * cmath.exp(2j * math.pi * (2 * sum(bits) - g.n_edges) / k)
        assert abs(t_density(g, a, hk) - want) < 1e-12 * max(1, n_balanced)

    def test_constant_kernel(self, c4):
        # a constant is a one-box step kernel
        c = 0.5 + 0.25j
        got = t_density(c4, EdgeColouring((1, 1, 0, 1)), StepKernel.constant(c))
        assert got == pytest.approx(c ** 3 * c.conjugate())

    def test_discretised_phase_kernel_needs_a_grid_above_every_degree(self):
        # on C6 an imbalance of 2 is 0 mod 2, so the monochromatic colouring,
        # unbalanced at every vertex, reads 1 at p = 2 and 0 at p = 3
        g, mono = cycle(6), EdgeColouring((1,) * 6)
        assert abs(t_density(g, mono, phase_kernel(2)) - 1) < 1e-12
        assert abs(t_density(g, mono, phase_kernel(3))) < 1e-12


class TestPerturbation:
    def test_expansion_matches_series(self):
        # t(1 + eps*h0-discretised) should shadow 1 + eps^g*kappa_g up to g+2
        g = cycle(4)
        alt = EdgeColouring((1, 0, 1, 0))
        pk = phase_kernel(5)
        eps = 1 / 64
        direct = t_density(g, alt, perturbed_step(pk, eps))
        assert direct == pytest.approx(1 + eps ** 4, rel=1e-9)


def perturbed_step(h, eps):
    return StepKernel(tuple(tuple(1 + eps * x for x in row) for row in h.values))


class TestSecondOrder:
    def test_two_path_integrals_oriented_star(self):
        rng = random.Random(15)
        h = StepKernel(
            [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        )
        i1, i2, i3 = two_path_integrals(h)
        k12 = star(2)
        # out-out orientation: quadratic coefficient is exactly I1
        exp = second_order_expansion(k12, EdgeColouring((1, 1)), h)
        assert exp.c2 == pytest.approx(i1)
        # in-in gives I2, mixed gives I3
        assert second_order_expansion(k12, EdgeColouring((0, 0)), h).c2 == \
            pytest.approx(i2)
        assert second_order_expansion(k12, EdgeColouring((1, 0)), h).c2 == \
            pytest.approx(i3)

    def test_centre_inequality_strict_for_asymmetric(self):
        h = StepKernel([[0, 1], [-1, 0]])  # antisymmetric
        i1, i2, i3 = two_path_integrals(h)
        assert i1 + i2 - 2 * i3 > 0

    def test_zero_kernel(self, c4, alt4):
        exp = second_order_expansion(c4, alt4, StepKernel.constant(0.0, 2, 2))
        assert (exp.c0, exp.c1, exp.c2) == (1.0, 0.0, 0.0)

    def test_prediction_has_cubic_residual(self):
        rng = random.Random(16)
        h = StepKernel(
            [[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)]
        )
        for g, col in ((cycle(4), EdgeColouring((1, 0, 1, 0))),
                       (cycle(6), EdgeColouring((1, 0, 1, 0, 1, 0))),
                       (star(2), EdgeColouring((1, 0)))):
            exp = second_order_expansion(g, col, h)
            for eps in (0.125, -0.125, 0.0625, -0.0625):
                direct = t_density(g, col, perturbed_step(h, eps), "transpose").real
                assert abs(direct - exp.predict(eps)) <= \
                    expansion_tail_bound(g, h, eps) + 1e-12

    def test_requires_real_square(self, c4, alt4):
        with pytest.raises(ValueError, match="square kernel"):
            second_order_expansion(c4, alt4, StepKernel.constant(1.0, 2, 3))
        with pytest.raises(ValueError):
            second_order_expansion(c4, alt4, StepKernel.constant(1j, 2, 2))


class TestRhoConjugateMode:
    def test_power_sum_is_real_for_complex_kernels(self, c4):
        # conjugate colourings contribute conjugate values, so the power sum
        # is real even for complex kernels
        rng = random.Random(77)
        f = rand_kernel(rng, 2, 2)
        val = rho_2m(c4, f, 2, "conjugate")
        assert val >= 0
        brute = sum(
            t_density(c4, EdgeColouring(bits), f) ** 4
            for bits in product((0, 1), repeat=4)
        )
        assert abs(brute.imag) < 1e-12
        assert val == pytest.approx(max(brute.real, 0) ** 0.25)
