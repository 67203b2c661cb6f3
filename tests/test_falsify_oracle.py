"""Batched falsifiers against the per-trial implementations they replaced.

The references below are the falsifiers as they were before trials were
evaluated in chunks: one density call per kernel per trial, each through
``ref_t_decoration``, the unbatched evaluation that the library replaced by
one-row calls of its batched ``_densities``: one (p, q) factor per edge, no
batch axes, and one complex division by the assignment count.  They are
kept as oracles: on every case the batched versions must return equal
results under dataclass ``==``, that is the same witness trial, kernels,
recorded values, trial count and worst margin.
"""

import cmath
import math
import random

import numpy as np
import pytest

from gnorm import falsify
from gnorm.config import DEFAULT
from gnorm.constructions import hypercube
from gnorm.density import (
    _SWEEP_BUDGET,
    _colour_table,
    _evaluate,
    _route,
    t_decoration,
    t_density,
)
from gnorm.falsify import (
    FalsifierResult,
    HatamiCheck,
    HatamiScan,
    HatamiWitness,
    TriangleWitness,
    _SLACK,
    _substream,
    _uniform_entries,
    hatami_random_scan,
    hatami_violation_search,
    triangle_falsifier,
)
from gnorm.graphs import EdgeColouring, complete_bipartite, cycle, star
from gnorm.kernels import Decoration, StepKernel, phase_kernel

from conftest import path

# -- reference: one unbatched evaluation per density ---------------------------------


def random_kernel(rng, p, q):
    """Entries drawn row by row, real part before imaginary part."""
    return StepKernel([
        [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(q)]
        for _ in range(p)
    ])


def ref_t_decoration(g, a, dec, mode="conjugate", method="auto", config=DEFAULT):
    route = _route(g, dec.shape, mode, method, config)
    factors = [_colour_table(k.array(), c, mode) for k, c in zip(dec.kernels, a.colours)]
    return complex(_evaluate(route, g, factors)) / route.assignments


def ref_t_density(g, a, f, mode="conjugate", config=DEFAULT):
    return ref_t_decoration(g, a, Decoration.uniform(f, g.n_edges), mode, config=config)


def ref_hatami_check(g, a, dec, config=DEFAULT):
    e = g.n_edges
    mixed = abs(ref_t_decoration(g, a, dec, config=config))
    singles = [abs(ref_t_density(g, a, dec[i], config=config)) for i in range(e)]
    lhs = mixed ** e
    rhs = math.prod(singles)
    tol = _SLACK
    if mixed <= tol:
        return HatamiCheck(True, math.inf, lhs, rhs)
    if any(s <= tol for s in singles):
        return HatamiCheck(False, -math.inf, lhs, rhs)
    margin = sum(math.log(s) for s in singles) - e * math.log(mixed)
    holds = lhs <= rhs * (1.0 + tol) + tol
    return HatamiCheck(holds, margin, lhs, rhs)


def ref_hatami_random_scan(g, a, seed, trials, resolution=2, config=DEFAULT):
    worst = math.inf
    for t in range(trials):
        rng = _substream(seed, t)
        dec = Decoration(
            tuple(random_kernel(rng, resolution, resolution) for _ in range(g.n_edges))
        )
        res = ref_hatami_check(g, a, dec, config)
        worst = min(worst, res.log_margin)
        if not res.holds:
            return HatamiScan(
                HatamiWitness(seed, t, a.colours, dec.kernels,
                              res.lhs, res.rhs, res.log_margin),
                t + 1,
                worst,
            )
    return HatamiScan(None, trials, worst)


def ref_deleted_density(g, a, f, drop, config):
    kernels = list(Decoration.uniform(f, g.n_edges).kernels)
    kernels[drop] = StepKernel.constant(1.0, *f.shape)
    return ref_t_decoration(g, a, Decoration(tuple(kernels)), config=config)


def ref_hatami_violation_search(g, a, seed, trials=1000, resolution=2, config=DEFAULT):
    e = g.n_edges
    if e < 2:
        return None
    for t in range(trials):
        rng = _substream(seed, t)
        f = random_kernel(rng, resolution, resolution)
        tv = ref_t_density(g, a, f, config=config)
        if abs(tv) < 1e-6:
            continue
        deleted = [ref_deleted_density(g, a, f, i, config) for i in range(e)]
        for i in range(e):
            for j in range(e):
                if i == j:
                    continue
                z = falsify._mismatch_direction(a[i], a[j], deleted[i], deleted[j], tv)
                if z is None:
                    continue
                for eps in (0.25, 0.125, 0.0625, 0.03125):
                    kernels = list(Decoration.uniform(f, e).kernels)
                    zk = StepKernel.constant(eps * z, *f.shape)
                    kernels[i] = f.add(zk)
                    kernels[j] = f.add(zk.scale(-1.0))
                    dec = Decoration(tuple(kernels))
                    res = ref_hatami_check(g, a, dec, config)
                    if not res.holds:
                        return HatamiWitness(seed, t, a.colours, dec.kernels,
                                             res.lhs, res.rhs, res.log_margin)
    return None


def ref_triangle_falsifier(g, a, seed, trials=10_000, resolution=2, config=DEFAULT):
    e = g.n_edges
    tol = _SLACK

    def norm(f):
        return abs(ref_t_density(g, a, f, config=config)) ** (1.0 / e)

    def triangle_witness(t, f, f2):
        ns, nf, ng = norm(f.add(f2)), norm(f), norm(f2)
        if ns > nf + ng + tol:
            return TriangleWitness("triangle", seed, t, a.colours, f, f2, None,
                                   {"norm_sum": ns, "norm_f": nf, "norm_g": ng})
        return None

    def scaling_witness(t, f, c):
        tf = ref_t_density(g, a, f, config=config)
        tcf = ref_t_density(g, a, f.scale(c), config=config)
        expected = (abs(c) ** e) * tf
        if abs(tcf - expected) > tol * max(1.0, abs(expected)):
            return TriangleWitness("scaling", seed, t, a.colours, f, None, c,
                                   {"t_cf": tcf, "expected": expected, "t_f": tf})
        return None

    structured_p = max(resolution, max(g.degrees) + 1)

    for t in range(trials):
        if t == 0:
            pk = phase_kernel(structured_p)
            w = triangle_witness(t, pk, pk.conj())
            if w:
                return FalsifierResult(w, t + 1)
            for c in (cmath.exp(1j * math.pi / 4), 1j, cmath.exp(1j * math.pi / 3)):
                w = scaling_witness(t, StepKernel.constant(1.0, resolution, resolution), c)
                if w:
                    return FalsifierResult(w, t + 1)
            continue
        rng = _substream(seed, t)
        f = random_kernel(rng, resolution, resolution)
        f2 = random_kernel(rng, resolution, resolution)
        w = triangle_witness(t, f, f2)
        if w:
            return FalsifierResult(w, t + 1)
        c = cmath.exp(2j * math.pi * rng.random())
        w = scaling_witness(t, f, c)
        if w:
            return FalsifierResult(w, t + 1)
    return FalsifierResult(None, trials)


# -- cases ---------------------------------------------------------------------------

# (label, graph, colouring).  The alternating colourings are norming, so every
# trial runs; the others give witnesses, P5 1100 only at a random trial.
CASES = {
    "C4 1010": (cycle(4), (1, 0, 1, 0)),
    "C4 1111": (cycle(4), (1, 1, 1, 1)),
    "C4 1110": (cycle(4), (1, 1, 1, 0)),
    "K12 11": (star(2), (1, 1)),
    "K12 10": (star(2), (1, 0)),
    "C6 101010": (cycle(6), (1, 0, 1, 0, 1, 0)),
    "P5 1100": (path(4), (1, 1, 0, 0)),
}
SEEDS = range(30)
TRIALS = 24


def chunk_trials(g, resolution, mode, per_trial):
    """Trials in one chunk of a batched falsifier, from the route it plans."""
    route = _route(g, (resolution, resolution), mode, "auto", DEFAULT)
    return max(1, _SWEEP_BUDGET // (route.row_width * per_trial))


@pytest.mark.parametrize("resolution", [2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_triangle_matches_the_per_trial_oracle(case, resolution):
    g, colours = CASES[case]
    a = EdgeColouring(colours)
    for seed in SEEDS:
        want = ref_triangle_falsifier(g, a, seed, TRIALS, resolution)
        assert triangle_falsifier(g, a, seed, TRIALS, resolution) == want, seed


@pytest.mark.parametrize("resolution", [2, 3])
@pytest.mark.parametrize("case", sorted(CASES))
def test_random_scan_matches_the_per_trial_oracle(case, resolution):
    g, colours = CASES[case]
    a = EdgeColouring(colours)
    for seed in SEEDS:
        want = ref_hatami_random_scan(g, a, seed, TRIALS, resolution)
        assert hatami_random_scan(g, a, seed, TRIALS, resolution) == want, seed


@pytest.mark.parametrize("case", ["C4 1110", "C4 1010", "P5 1100", "C6 101010"])
def test_violation_search_matches_the_per_trial_oracle(case):
    g, colours = CASES[case]
    a = EdgeColouring(colours)
    for seed in range(10):
        want = ref_hatami_violation_search(g, a, seed, 20, 2)
        assert hatami_violation_search(g, a, seed, 20, 2) == want, seed


def test_violation_search_on_q3_matches_the_oracle():
    # Q3 at resolution 2 has up to 132 edge pairs x 4 steps of candidates a
    # trial: seed 2 finds its witness in trial 0, and seed 0's trial 0
    # checks every candidate and finds none
    g, a = hypercube(3), EdgeColouring((1, 0) * 6)
    for seed, trials, trial in ((2, 3, 0), (0, 1, None)):
        want = ref_hatami_violation_search(g, a, seed, trials, 2)
        got = hatami_violation_search(g, a, seed, trials, 2)
        assert got == want, seed
        assert (None if got is None else got.trial) == trial


def test_t_decoration_matches_the_unbatched_route():
    # the one-row call of the batched evaluation equals the unbatched one
    rng = random.Random("t_decoration")
    for label in sorted(CASES):
        g, colours = CASES[label]
        a = EdgeColouring(colours)
        for mode in ("conjugate", "transpose"):
            for method in ("direct", "eliminate"):
                dec = Decoration(tuple(random_kernel(rng, 3, 3) for _ in range(g.n_edges)))
                want = ref_t_decoration(g, a, dec, mode, method)
                assert t_decoration(g, a, dec, mode, method) == want


def test_witnesses_come_from_random_trials():
    # the cases above reach the batched witness path, not only trial 0's
    g, colours = CASES["P5 1100"]
    a = EdgeColouring(colours)
    late = [triangle_falsifier(g, a, seed, TRIALS).witness for seed in SEEDS]
    assert sum(w is not None and w.trial > 0 for w in late) >= 5
    g, colours = CASES["C4 1110"]
    a = EdgeColouring(colours)
    scans = [hatami_random_scan(g, a, seed, TRIALS).witness for seed in SEEDS]
    assert sum(w is not None and w.trial > 0 for w in scans) >= 5


@pytest.mark.parametrize("case", ["C4 1010", "C6 101010"])
def test_trial_counts_around_a_chunk_boundary(case):
    g, colours = CASES[case]
    a = EdgeColouring(colours)
    rows = chunk_trials(g, 2, "conjugate", 4)
    # trial 0 is the structured one, so the first chunk is trials 1..rows
    for trials in (0, 1, rows, rows + 2):
        want = ref_triangle_falsifier(g, a, 3, trials)
        assert triangle_falsifier(g, a, 3, trials) == want, trials
    rows = chunk_trials(g, 2, "conjugate", 1 + g.n_edges)
    for trials in (0, 1, rows - 1, rows + 1):
        want = ref_hatami_random_scan(g, a, 3, trials)
        assert hatami_random_scan(g, a, 3, trials) == want, trials


def test_elimination_route_matches_the_oracle():
    # C8 at resolution 3 has 3^8 > 4096 assignments, so "auto" eliminates
    g, a = cycle(8), EdgeColouring((1, 1, 0, 1, 0, 0, 1, 0))
    for seed in range(3):
        assert (hatami_random_scan(g, a, seed, 6, 3)
                == ref_hatami_random_scan(g, a, seed, 6, 3)), seed
        assert triangle_falsifier(g, a, seed, 6, 3) == ref_triangle_falsifier(g, a, seed, 6, 3)


def test_random_kernel_draws_as_before():
    for seed in range(10):
        for p, q in ((1, 1), (2, 3), (3, 3)):
            want = random_kernel(random.Random(seed), p, q)
            assert falsify.random_kernel(random.Random(seed), p, q) == want


def test_t_density_matches_the_uniform_decoration():
    rng = random.Random("t_density")
    for label in sorted(CASES):
        g, colours = CASES[label]
        a = EdgeColouring(colours)
        for mode in ("conjugate", "transpose"):
            for method in ("direct", "eliminate"):
                f = random_kernel(rng, 3, 3)
                want = t_decoration(g, a, Decoration.uniform(f, g.n_edges), mode, method)
                assert t_density(g, a, f, mode, method) == want


def test_trial_zero_matches_the_oracle_at_every_resolution():
    # trial 0's candidates on graphs of degree 3: the phase kernel is 4x4,
    # and at resolution 1 the scaling law's 1x1 constants report the
    # colourings that trial 0's phase kernel leaves standing
    rng = random.Random("trial zero")
    for g in (hypercube(3), complete_bipartite(3, 3)):
        for _ in range(4):
            a = EdgeColouring(tuple(rng.randrange(2) for _ in range(g.n_edges)))
            for resolution in (1, 2, 3):
                want = ref_triangle_falsifier(g, a, 3, 3, resolution)
                assert triangle_falsifier(g, a, 3, 3, resolution) == want, (a, resolution)

# -- the draw primitive ----------------------------------------------------------------

DRAW_SIZES = (1, 2, 3, 8, 16, 24, 64)


def ref_entries(rng, n):
    """n entries drawn one part at a time, real part before imaginary part."""
    return np.array([complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                     for _ in range(n)], dtype=np.complex128)


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_uniform_entries_equal_uniform_draws_bit_for_bit(n):
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        got = _uniform_entries([rng], n)
        assert got.shape == (1, n) and got.dtype == np.complex128
        assert got.tobytes() == ref_entries(ref, n).tobytes(), seed
        # the generator is left where the per-entry draws leave it, so the
        # triangle falsifier's scalar, drawn after the entries, is unchanged
        assert rng.getstate() == ref.getstate(), seed
        assert rng.random().hex() == ref.random().hex(), seed


@pytest.mark.parametrize("n", DRAW_SIZES)
def test_a_chunk_of_trials_stacks_its_rows(n):
    for seed in range(200):
        # a one-trial chunk, and a chunk of 2 to 8 trials not starting at 0
        for chunk in (range(seed % 5, seed % 5 + 1), range(1 + seed % 3, 3 + seed % 9)):
            got = _uniform_entries([_substream(seed, t) for t in chunk], n)
            rows = [ref_entries(_substream(seed, t), n) for t in chunk]
            assert got.shape == (len(chunk), n)
            assert got.tobytes() == np.stack(rows).tobytes(), (seed, chunk)


# -- resolution 1 -----------------------------------------------------------------------

# At resolution 1 a chunk's (B, 1, 1) products run in numpy's SIMD complex
# loop and a one-row call's in its scalar loop, so the batched values differ
# from the trial-by-trial ones in the last bits; the trials, witness trials
# and verdicts do not.
RESOLUTION_1_CASES = {**CASES, "Q3 all 1": (hypercube(3), (1,) * 12)}


def assert_close(got, want, rel=0.0, abs_=0.0):
    assert cmath.isclose(got, want, rel_tol=rel, abs_tol=abs_), (got, want)


@pytest.mark.parametrize("case", sorted(RESOLUTION_1_CASES))
def test_resolution_1_matches_the_oracles_to_rounding(case):
    g, colours = RESOLUTION_1_CASES[case]
    a = EdgeColouring(colours)
    for seed in SEEDS:
        got, want = hatami_random_scan(g, a, seed, TRIALS, 1), \
            ref_hatami_random_scan(g, a, seed, TRIALS, 1)
        assert (got.trials, got.violated) == (want.trials, want.violated), seed
        assert_close(got.worst_margin, want.worst_margin, abs_=1e-12)
        if want.violated:
            w, v = got.witness, want.witness
            assert (w.trial, w.kernels) == (v.trial, v.kernels), seed
            assert_close(w.lhs, v.lhs, rel=1e-12)
            assert_close(w.rhs, v.rhs, rel=1e-12)
        got, want = triangle_falsifier(g, a, seed, TRIALS, 1), \
            ref_triangle_falsifier(g, a, seed, TRIALS, 1)
        assert got.trials == want.trials, seed
        assert (got.witness is None) == (want.witness is None), seed
        if want.witness is not None:
            w, v = got.witness, want.witness
            assert (w.kind, w.trial, w.f, w.g2, w.c) == (v.kind, v.trial, v.f, v.g2, v.c)
            assert w.values.keys() == v.values.keys()
            for key in v.values:
                assert_close(w.values[key], v.values[key], rel=1e-12)
