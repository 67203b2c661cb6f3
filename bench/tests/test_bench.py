"""Self-tests of the benchmark: relabelling, the tracer, the reference-speed
clock, a smoke pass of each workload, and agreement with BENCHMARK.json.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import refclock  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gnorm import certify, symmetry  # noqa: E402
from gnorm.constructions import subdivided_complete  # noqa: E402
from gnorm.graphs import complete_bipartite, cycle  # noqa: E402

LAYER_NAMES = {m[0] for m in tracing.LAYER_METRICS} | {tracing.OVERHEAD_METRIC[0]}


@pytest.mark.parametrize("g", [cycle(6), complete_bipartite(2, 4), subdivided_complete(5)],
                         ids=["C6", "K24", "SK5"])
def test_relabelling_keeps_the_verdict(g):
    want = certify.certify_not_norming(g)
    for seed in range(3):
        h = workloads.relabel(g, random.Random(seed))
        assert sorted(h.vertices) != sorted(g.vertices) or h.edges != g.edges
        got = certify.certify_not_norming(h)
        assert (got.verdict, got.obstruction) == (want.verdict, want.obstruction)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def inner():
        clock.now += 3

    inner = tracing._span_call(tr, "inner", inner)

    def outer():
        clock.now += 1
        inner()
        inner()
        clock.now += 2

    tracing._span_call(tr, "outer", outer)()
    stats = tr.stats()
    assert (stats["outer"].incl, stats["outer"].excl, stats["outer"].calls) == (9, 3, 1)
    assert (stats["inner"].incl, stats["inner"].excl, stats["inner"].calls) == (6, 6, 2)
    assert list(tr.parent) == [-1, 0, 0]


def test_generator_is_timed_only_while_it_runs():
    clock = FakeClock()
    tr = tracing.Tracer(clock)

    def gen():
        for i in range(2):
            clock.now += 1      # work inside the generator
            yield i
        clock.now += 1          # work before StopIteration

    gen = tracing._span_generator(tr, "gen", gen, "items")

    def consumer():
        for _ in gen():
            clock.now += 10     # consumer work between items

    tracing._span_call(tr, "consumer", consumer)()
    stats = tr.stats()
    assert (stats["gen"].incl, stats["gen"].calls) == (3, 3)
    assert (stats["consumer"].incl, stats["consumer"].excl) == (23, 20)
    assert tr.counts["items"] == 2


def test_instrumentation_patches_every_binding_and_restores_it():
    orig = symmetry._all_automorphisms
    tr = tracing.Tracer()
    with tracing.Instrumentation(tr):
        assert symmetry._all_automorphisms is not orig
        certify.certify_not_norming(cycle(6))
    assert symmetry._all_automorphisms is orig
    metrics = tracing.layer_metrics(tr)
    # one enumeration in the edge-transitivity report, one for the filter
    assert metrics["symmetry.enumerate_calls"] == 2
    assert metrics["cycles.enumerate_calls"] >= 1
    assert metrics["density.direct_calls"] == 0


def test_absent_boundary_is_reported_as_absent_not_zero():
    gone = tracing.Boundary("symmetry.transitive_filter", "gnorm.symmetry", "_no_such_function")
    boundaries = tuple(b for b in tracing.BOUNDARIES
                       if b.span != "symmetry.transitive_filter") + (gone,)
    tr = tracing.Tracer()
    instr = tracing.Instrumentation(tr, boundaries)
    assert instr.absent == ["symmetry.transitive_filter"]
    with instr:
        certify.certify_not_norming(cycle(6))
    metrics = tracing.layer_metrics(tr, instr.absent)
    assert metrics["symmetry.transitive_filter_s"] is None
    assert metrics["symmetry.transitive_accept_ratio"] is None
    assert metrics["symmetry.enumerate_calls"] == 2


def test_refclock_counts_work_not_host_speed():
    clock = FakeClock()
    cost = [1e-3]

    def loop():
        clock.now += cost[0]

    rc = refclock.RefClock(clock=clock, loop=loop)
    a = rc.mark()
    clock.now += 1.0            # one second of work at reference speed
    b = rc.mark()
    cost[0] = 2e-3              # the host runs at half speed
    c = rc.mark()
    clock.now += 2.0            # the same work now takes two seconds
    d = rc.mark()
    assert rc.raw(a, b) == pytest.approx(1.0)
    assert rc.scaled(a, b) == pytest.approx(1.0)
    assert rc.raw(c, d) == pytest.approx(2.0)
    assert rc.scaled(c, d) == pytest.approx(1.0)


def test_refclock_samples_inside_a_long_call_and_leaves_them_out():
    rc = refclock.RefClock(interval=0.01)
    with rc:
        a = rc.mark()
        t = time.perf_counter()
        while time.perf_counter() - t < 0.3:
            pass
        b = rc.mark()
    assert b - a > 5                      # the alarm sampled during the loop
    assert sorted(rc.starts) == rc.starts
    assert rc.raw(a, b) < time.perf_counter() - t - sum(rc.costs[a + 1:b])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_pass_emits_every_metric(name):
    plain = run.measure(name, seed=0, seconds=0, trace=False, small=True, setup_repeats=1)
    assert plain["failed"] == 0, plain["failures"]
    want = {"setup_s", "wall_s", "job_p50_s", "job_p90_s", "job_max_s", "peak_rss_mb",
            "failed_frac"}
    if name in run.RATE_METRIC:
        want.add(run.RATE_METRIC[name])
    assert want <= set(plain["metrics"])

    traced = run.measure(name, seed=0, seconds=0, trace=True, small=True, setup_repeats=1)
    assert traced["failed"] == 0, traced["failures"]
    assert set(traced["layer_metrics"]) == LAYER_NAMES
    assert traced["absent_boundaries"] == []


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert all(m["unit"] == run.UNITS[m["name"]] for m in spec["end_to_end"])
    layer = [(m[0], m[1], m[2]) for m in tracing.LAYER_METRICS] + [tracing.OVERHEAD_METRIC]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "falsify-scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
