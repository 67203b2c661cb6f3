"""Falsifier behaviour: soundness on norming colourings, sensitivity on
broken ones, witness replay, determinism."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gnorm
from gnorm.config import RunConfig
from gnorm.density import _route
from gnorm.graphs import BipartiteGraph, EdgeColouring, star
from gnorm.kernels import Decoration, StepKernel
from gnorm.falsify import (
    HatamiCheck,
    HatamiWitness,
    _SLACK,
    _hatami_checks,
    _verdict,
    hatami_check,
    hatami_random_scan,
    hatami_violation_search,
    random_kernel,
    triangle_falsifier,
)
from gnorm.kernels import phase_kernel
from gnorm.density import t_decoration, t_density

from conftest import scalar_verdict


class TestHatamiCheck:
    def test_equality_when_uniform(self, c4, alt4):
        f = random_kernel(random.Random(0), 2, 2)
        res = hatami_check(c4, alt4, Decoration.uniform(f, 4))
        assert res.holds and res.log_margin == 0.0

    def test_the_margin_adds_its_logs_left_to_right(self):
        # from Python 3.12 on, sum() of floats is compensated (Neumaier), and
        # on these logs that moves the last bit; the margin adds them left
        # to right, so it has the same bits on every version
        singles = [1.54, 1.4, 1.99, 2.39]
        total, comp = 0.0, 0.0
        for x in map(math.log, singles):
            t = total + x
            comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        assert total + comp == 2.3276826577265712
        res = HatamiCheck(*_verdict(1.0, singles))
        assert res.holds and res.log_margin == 2.327682657726571

    def test_zero_mixed_side_holds(self, c4, alt4):
        zero = StepKernel.constant(0.0, 2, 2)
        f = random_kernel(random.Random(1), 2, 2)
        dec = Decoration((f, zero, f, f))
        assert hatami_check(c4, alt4, dec).holds

    def test_violation_detected(self, c4):
        bad = EdgeColouring((1, 1, 1, 0))
        witness = hatami_violation_search(c4, bad, seed=5, trials=50)
        assert witness is not None
        replay = witness.replay(c4)
        assert not replay.holds and replay.log_margin < 0

    def test_witness_json_is_replayable(self, c4):
        bad = EdgeColouring((1, 1, 1, 0))
        witness = hatami_violation_search(c4, bad, seed=5, trials=50)
        blob = witness.to_json()
        assert blob["kind"] == "decoration-inequality"
        assert blob["seed"] == 5 and len(blob["kernels"]) == 4
        # the falsifiers run in conjugate mode only, so no mode is recorded
        assert sorted(blob) == ["colours", "kernels", "kind", "lhs", "log_margin",
                                "rhs", "seed", "trial"]

    @pytest.mark.parametrize("fault", ["short decoration", "misaligned colouring"])
    def test_refuses_what_t_decoration_refuses(self, c4, alt4, fault):
        # one copy of the decoration contract serves both
        f = random_kernel(random.Random(2), 2, 2)
        args = {"short decoration": (c4, alt4, Decoration.uniform(f, 3)),
                "misaligned colouring": (c4, EdgeColouring((1, 0, 1)),
                                         Decoration.uniform(f, 4))}[fault]
        with pytest.raises(ValueError) as want:
            t_decoration(*args)
        with pytest.raises(ValueError) as got:
            hatami_check(*args)
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))

    def test_vanishing_single_density_writes_a_null_margin(self, c4, mono4):
        # t(a) = 0 on the monochromatic square, while the mixed density is
        # not: the margin is -inf, and the JSON says null beside rhs = 0
        a = StepKernel(np.array([[1, 1j], [0, 0]]))
        b = StepKernel(np.array([[1, 0], [0, 0]]))
        kernels = (a, b, b, b)
        res = hatami_check(c4, mono4, Decoration(kernels))
        assert not res.holds and res.log_margin == -math.inf
        witness = HatamiWitness(0, 0, mono4.colours, kernels,
                                res.lhs, res.rhs, res.log_margin)
        blob = json.loads(json.dumps(witness.to_json(), allow_nan=False))
        assert blob["log_margin"] is None and blob["rhs"] == 0 < blob["lhs"]

    def test_no_violation_on_alternating_scan(self, c4, alt4):
        scan = hatami_random_scan(c4, alt4, seed=9, trials=300)
        assert not scan.violated
        assert scan.worst_margin >= 0

    def test_directed_search_misses_norming(self, c4, alt4):
        assert hatami_violation_search(c4, alt4, seed=9, trials=30) is None


class TestTriangleFalsifier:
    def test_monochromatic_square_fails_fast(self, c4, mono4):
        res = triangle_falsifier(c4, mono4, seed=42, trials=1000)
        assert res.violated and res.trials <= 1000
        assert res.witness.replay(c4)

    def test_unbalanced_star_scaling(self):
        k12 = star(2)
        res = triangle_falsifier(k12, EdgeColouring((1, 1)), seed=42, trials=100)
        assert res.violated

    def test_half_half_star_is_clean(self):
        # the mixed orientation realises an L2 norm of row sums: a seminorm
        k12 = star(2)
        res = triangle_falsifier(k12, EdgeColouring((1, 0)), seed=7, trials=500)
        assert not res.violated

    def test_alternating_square_is_clean(self, c4, alt4):
        res = triangle_falsifier(c4, alt4, seed=11, trials=500)
        assert not res.violated

    def test_deterministic_given_seed(self, c4, mono4):
        r1 = triangle_falsifier(c4, mono4, seed=3, trials=50)
        r2 = triangle_falsifier(c4, mono4, seed=3, trials=50)
        assert r1.witness.to_json() == r2.witness.to_json()

    def test_structured_pair_separates_balance(self, c4, mono4, alt4):
        # the phase kernel and its conjugate annihilate unbalanced densities
        pk = phase_kernel(3)
        assert abs(t_density(c4, mono4, pk)) < 1e-12
        assert abs(t_density(c4, mono4, pk.conj())) < 1e-12
        assert abs(t_density(c4, mono4, pk.add(pk.conj()))) > 1


class TestBudgetValidation:
    @pytest.mark.parametrize("falsifier", [
        triangle_falsifier, hatami_random_scan, hatami_violation_search])
    def test_negative_trials_and_empty_grid_are_refused(self, c4, alt4, falsifier):
        with pytest.raises(ValueError, match="trials"):
            falsifier(c4, alt4, 0, trials=-3)
        with pytest.raises(ValueError, match="resolution"):
            falsifier(c4, alt4, 0, trials=5, resolution=0)

    @pytest.mark.parametrize("falsifier", [triangle_falsifier, hatami_random_scan])
    def test_empty_graph_is_refused(self, falsifier):
        with pytest.raises(ValueError, match="at least one edge"):
            falsifier(BipartiteGraph((), (), ()), EdgeColouring(()), 0, trials=5)

    def test_zero_trials_run_nothing(self, c4, mono4):
        assert triangle_falsifier(c4, mono4, 0, trials=0).trials == 0
        scan = hatami_random_scan(c4, mono4, 0, trials=0)
        assert scan.trials == 0 and not scan.violated


def _bits(check: HatamiCheck) -> tuple:
    """A check's fields with their types, floats by their bits."""
    return (type(check.holds), check.holds,
            *((type(x), x.hex()) for x in (check.log_margin, check.lhs, check.rhs)))


def _magnitudes(rng, n, e):
    """n rows of |t({f_e})| and e magnitudes |t(f_e)|, with rows whose mixed
    density vanishes, rows with a vanishing single density, rows with both,
    rows at and just past the slack, and rows near equality."""
    mixed = rng.uniform(0.0, 2.0, n)
    singles = rng.uniform(0.0, 2.0, (n, e))
    eighth = n // 8
    mixed[:eighth] = rng.choice([0.0, _SLACK, 0.5 * _SLACK], eighth)
    cols = rng.integers(0, e, 2 * eighth)
    singles[eighth:3 * eighth][np.arange(2 * eighth), cols] = \
        rng.choice([0.0, _SLACK, 0.25 * _SLACK], 2 * eighth)
    mixed[2 * eighth:3 * eighth] = rng.choice([0.0, _SLACK], eighth)
    mixed[3 * eighth] = np.nextafter(_SLACK, 1.0)
    singles[3 * eighth + 1, 0] = np.nextafter(_SLACK, 1.0)
    # every single equal to the mixed magnitude: the margin is about 0
    near = slice(4 * eighth, 5 * eighth)
    singles[near] = mixed[near, None] * (1.0 + rng.uniform(-1e-10, 1e-10, (eighth, e)))
    return mixed, singles


class TestChunkVerdicts:
    """A chunk's verdicts are tuples, one per row, from magnitudes taken by
    one ``np.hypot`` pass; each row must equal the one-row verdict in Python
    floats on ``abs()`` of its densities (``conftest.scalar_verdict``),
    field for field and bit for bit."""

    def test_hypot_gives_the_bits_of_complex_abs(self):
        # the premise of the magnitude pass: np.hypot(re, im) is abs(complex)
        rng = np.random.default_rng(100_000)
        n = 100_000
        z = (rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n)
             + 1j * rng.standard_normal(n) * 10.0 ** rng.uniform(-12, 12, n))
        z[:1000] = rng.uniform(-1, 1, 1000) + 1j * rng.uniform(-1, 1, 1000)
        want = np.array([abs(x) for x in z.tolist()])
        assert np.hypot(z.real, z.imag).tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", range(1, 9))
    def test_rows_equal_the_scalar_verdict(self, e):
        rng = np.random.default_rng(e)
        mixed, singles = _magnitudes(rng, 400, e)
        kinds = set()
        for m, row in zip(mixed.tolist(), singles.tolist()):
            want = scalar_verdict(m, row)
            assert _bits(HatamiCheck(*_verdict(m, row))) == _bits(want), (m, row)
            kinds.add((m <= _SLACK, any(s <= _SLACK for s in row), want.holds))
        # vanishing mixed, vanishing single, both, and ordinary rows of both verdicts
        assert {(True, False, True), (False, True, False), (True, True, True),
                (False, False, True)} <= kinds
        if e > 1:
            assert (False, False, False) in kinds

    @pytest.mark.parametrize("e", range(1, 9))
    def test_chunk_checks_equal_the_scalar_verdict_on_densities(self, e):
        # K_{1,e}: each row's magnitudes are abs() of its densities
        g = star(e)
        a = EdgeColouring(tuple(i % 2 for i in range(e)))
        rng = np.random.default_rng(10 + e)
        kernels = rng.uniform(-1, 1, (60, e, 2, 2)) + 1j * rng.uniform(-1, 1, (60, e, 2, 2))
        # rows 0-4: the mixed density and one single density vanish; rows
        # 5-9: kernel 0 is zero at the centre's value 0 and the last kernel
        # at its value 1, so only the mixed density vanishes (both, at e = 1)
        kernels[:5, 0] = 0.0
        kernels[5:10, 0, 0] = 0.0
        kernels[5:10, -1, 1] = 0.0
        route = _route(g, (2, 2), "conjugate", "auto", RunConfig())
        checks = [HatamiCheck(*row) for row in _hatami_checks(route, g, a, kernels)]
        vanishing = []
        for check, ks in zip(checks, kernels):
            dec = Decoration(tuple(map(StepKernel, ks)))
            mixed = abs(t_decoration(g, a, dec))
            singles = [abs(t_density(g, a, k)) for k in dec.kernels]
            assert _bits(check) == _bits(scalar_verdict(mixed, singles))
            assert _bits(hatami_check(g, a, dec)) == _bits(check)
            vanishing.append((mixed == 0.0, 0.0 in singles))
        assert vanishing[:5] == [(True, True)] * 5
        assert vanishing[5:10] == [(True, e == 1)] * 5
        assert not any(map(any, vanishing[10:]))

    def test_vanishing_single_density_of_a_chunk(self, c4, mono4):
        # the monochromatic square's t(a) = 0 row among ordinary rows
        a = np.array([[1, 1j], [0, 0]])
        b = np.array([[1, 0], [0, 0]])
        rng = np.random.default_rng(3)
        kernels = rng.uniform(-1, 1, (9, 4, 2, 2)) + 0j
        kernels[4] = [a, b, b, b]
        route = _route(c4, (2, 2), "conjugate", "auto", RunConfig())
        check = HatamiCheck(*_hatami_checks(route, c4, mono4, kernels)[4])
        assert check.log_margin == -math.inf and not check.holds
        res = hatami_check(c4, mono4, Decoration(tuple(map(StepKernel, kernels[4]))))
        assert _bits(check) == _bits(res)


def test_the_falsifiers_load_no_hashlib():
    # Random.seed hashes a string key with the lean _sha512 module; hashlib
    # would add megabytes to every falsifier run's resident size
    code = ("import sys, gnorm\n"
            "from gnorm.graphs import EdgeColouring, cycle\n"
            "g = cycle(4)\n"
            "for a in (EdgeColouring((1, 0, 1, 0)), EdgeColouring((1, 1, 1, 0))):\n"
            "    gnorm.triangle_falsifier(g, a, 1, 40)\n"
            "    gnorm.hatami_random_scan(g, a, 1, 40)\n"
            "print(sorted(m for m in ('hashlib', '_hashlib') if m in sys.modules))\n")
    src = str(Path(gnorm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"
