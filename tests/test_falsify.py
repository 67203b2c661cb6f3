"""Falsifier behaviour: soundness on norming colourings, sensitivity on
broken ones, witness replay, determinism."""

import json
import math
import random

import numpy as np
import pytest

from gnorm.graphs import BipartiteGraph, EdgeColouring, star
from gnorm.kernels import Decoration, StepKernel
from gnorm.falsify import (
    HatamiCheck,
    HatamiWitness,
    hatami_check,
    hatami_random_scan,
    hatami_violation_search,
    random_kernel,
    triangle_falsifier,
)
from gnorm.kernels import phase_kernel
from gnorm.density import t_decoration, t_density


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
        res = HatamiCheck.verdict(1.0, singles)
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
