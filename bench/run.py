"""gnorm benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload certify-survey --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0     # every workload, one after another

The untraced run (``--trace 0``) reports the end-to-end metrics; the traced
run (``--trace 1``) alternates untraced and traced passes and reports the
per-layer metrics plus ``trace.overhead_frac``.  End-to-end times are at
reference speed (see refclock.py): wall time rescaled by a reference loop
timed alongside, so that the host's drifting speed does not show in them.
Each job's output is checked outside the timed region.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "GNORM_THREADS")
SETUP_REPEATS = 7
WORKLOADS = ("certify-survey", "falsify-scan", "density-sweep")

# End-to-end metrics every workload reports in its result line with --trace 0;
# BENCHMARK.json gates the same names.  The job percentiles, the rates and
# failed_frac are printed and written to the result file only (see README).
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
         "job_max_s": "s", "peak_rss_mb": "MB", "trials_per_s": "1/s",
         "evals_per_s": "1/s", "failed_frac": "ratio"}
RATE_METRIC = {"falsify-scan": "trials_per_s", "density-sweep": "evals_per_s"}


@dataclass
class Pass:
    wall: float      # at reference speed when timed by a RefClock, else as measured
    raw_wall: float  # as measured, without the reference samples
    times: list      # per job, in the same measure as ``wall``
    outputs: list


def _run_job(job):
    try:
        return job.run()
    except Exception as exc:  # one failing job must not stop the run
        traceback.print_exc(file=sys.stderr)
        return exc


def _run_pass(jobs, tracer=None, clock=None) -> Pass:
    """Run the job list once; the pass time is the sum of the job times.

    With a running ``refclock.RefClock`` the job times are taken between its
    marks and rescaled to reference speed; otherwise they are plain wall time.
    """
    times, raws, outputs = [], [], []
    mark = clock.mark() if clock is not None else None
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        t = time.perf_counter()
        outputs.append(_run_job(job))
        if clock is None:
            times.append(time.perf_counter() - t)
            raws.append(times[-1])
        else:
            end = clock.mark()
            times.append(clock.scaled(mark, end))
            raws.append(clock.raw(mark, end))
            mark = end
    return Pass(sum(times), sum(raws), times, outputs)


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _setup_time(name: str, seed: int, small: bool) -> tuple[float, float]:
    """Process start until the inputs are ready, in a fresh interpreter that
    imports gnorm and builds the workload's inputs.  The child reads the same
    monotonic clock when it is done, so its exit is not counted.

    Returns the time at reference speed, by the reference loop timed just
    before and just after the child, and the time as measured.
    """
    import refclock

    code = (f"import sys, time; sys.path[:0] = {[str(SRC), str(BENCH_DIR)]!r}; "
            f"import workloads; workloads.build({name!r}, {seed}, {small}); "
            f"print(time.perf_counter())")
    before = refclock.probe()
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                          stdout=subprocess.PIPE, text=True)
    raw = float(proc.stdout) - t
    after = refclock.probe()
    return raw * refclock.NOMINAL_S / ((before + after) / 2), raw


def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, run passes for ``seconds``, check outputs and compute metrics.

    Returns a dict with the metrics (value, unit, sample count), the
    attempted/failed counts, the failure reasons and, when tracing, the
    tracer of the first traced pass.
    """
    import refclock
    import tracing
    import workloads

    setups = [_setup_time(name, seed, small) for _ in range(setup_repeats)]
    wl = workloads.build(name, seed, small)

    clock = refclock.RefClock()
    plain, traced, per_layer, first_tracer, absent = [], [], [], None, []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        with clock:
            plain.append(_run_pass(wl.jobs, clock=clock))
        if trace:
            tracer = tracing.Tracer()
            instr = tracing.Instrumentation(tracer)
            absent = instr.absent
            with instr:
                traced.append(_run_pass(wl.jobs, tracer))
            per_layer.append(tracing.layer_metrics(tracer, absent))
            first_tracer = first_tracer or tracer
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:  # the next round would overrun
            break

    # Output checks: the first pass in full, every later pass for equality.
    first = plain[0].outputs
    reasons = [workloads.check_job(job, out) for job, out in zip(wl.jobs, first)]
    attempted = failed = 0
    failures = []
    for p in plain + traced:
        for job, out, ref, why in zip(wl.jobs, p.outputs, first, reasons):
            attempted += 1
            if not why and not workloads.same_output(out, ref):
                why = "output differs from the first pass"
            if why:
                failed += 1
                failures.append(f"{job.name}: {why}")
    for label, check in wl.extra_checks:
        attempted += 1
        try:
            why = check()
        except Exception as exc:
            why = f"raised {type(exc).__name__}: {exc}"
        if why:
            failed += 1
            failures.append(f"{label}: {why}")

    n = len(wl.jobs)
    per_job = [statistics.median(p.times[j] for p in plain) for j in range(n)]
    wall_s = statistics.median(p.wall for p in plain)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), len(setups)),
        "wall_s": (wall_s, len(plain)),
        "job_p50_s": (statistics.median(per_job), n),
        "job_p90_s": (_percentile(per_job, 90), n),
        "job_max_s": (max(per_job), n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "failed_frac": (failed / attempted, attempted),
    }
    if name in RATE_METRIC:
        metrics[RATE_METRIC[name]] = (sum(j.work for j in wl.jobs) / wall_s, len(plain))
    result = {
        "workload": name,
        "jobs": n,
        "passes": len(plain),
        "metrics": {k: {"value": v, "unit": UNITS[k], "samples": s}
                    for k, (v, s) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "measured": {  # the same times as measured, not rescaled
            "setup_s": statistics.median(r for _, r in setups),
            "wall_s": statistics.median(p.raw_wall for p in plain),
            "reference_loop_s": statistics.median(clock.costs),
        },
    }
    if trace:
        layer = tracing.median_metrics(per_layer)
        overhead = (statistics.median(p.raw_wall for p in traced)
                    / statistics.median(p.raw_wall for p in plain)) - 1.0
        units = {m[0]: m[1] for m in tracing.LAYER_METRICS}
        result["layer_metrics"] = {
            k: {"value": v, "unit": units[k], "samples": len(traced)}
            for k, v in layer.items()}
        result["layer_metrics"]["trace.overhead_frac"] = {
            "value": overhead, "unit": tracing.OVERHEAD_METRIC[1],
            "samples": len(traced)}
        result["absent_boundaries"] = absent
        result["tracer"] = first_tracer
    return result


# -- metadata -----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _metadata(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": os.cpu_count(),
        "cpu": _cpu_model(), "commit": _git_commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# -- entry points -------------------------------------------------------------------


def _print_report(meta: dict, result: dict, shown: dict) -> None:
    print(f"# gnorm benchmark: {meta['workload']} seed={meta['seed']} "
          f"seconds={meta['seconds']} trace={meta['trace']}")
    print(f"# python {meta['python']}, numpy {meta['numpy']}, nproc {meta['nproc']}, "
          f"cpu {meta['cpu']!r}, commit {meta['commit']}")
    print(f"# {result['jobs']} jobs per pass, {result['passes']} untraced passes; "
          f"job_* metrics are over jobs, each the median of its passes")
    raw = result["measured"]
    print(f"# times at reference speed; as measured: setup {raw['setup_s']:.4g} s, "
          f"wall {raw['wall_s']:.4g} s, reference loop {raw['reference_loop_s'] * 1e3:.3g} ms")
    for name, m in shown.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name:36s} {value:>14s} {m['unit']:6s} n={m['samples']}")
    if result.get("absent_boundaries"):
        print(f"# absent boundaries: {', '.join(result['absent_boundaries'])}")
    for line in result["failures"]:
        print(f"# FAILED {line}")


def _run_one(args) -> int:
    if not (SRC / "gnorm" / "__init__.py").is_file():
        print(f"error: the gnorm sources are missing ({SRC / 'gnorm'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import gnorm
    if Path(gnorm.__file__).resolve().parent != SRC / "gnorm":
        print(f"error: imported gnorm from {gnorm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing

    meta = _metadata(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.trace:
        shown = result["layer_metrics"]
    else:
        shown = result["metrics"]
    _print_report(meta, result, shown)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = result.pop("tracer", None)
    if tracer is not None:
        tracer.write_jsonl(f"{stem}.spans.jsonl")
    with open(f"{stem}.json", "w") as fh:
        json.dump({"meta": meta, **result}, fh, indent=1)

    if args.trace:
        wanted = [m[0] for m in tracing.LAYER_METRICS] + [tracing.OVERHEAD_METRIC[0]]
    else:
        wanted = list(END_TO_END)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": shown[k]["value"], "unit": shown[k]["unit"]}
                    for k in wanted},
    }))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so set-up and memory are its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] = summary["correct"] and last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        for k, m in last["metrics"].items():
            summary["metrics"][f"{name}:{k}"] = m
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
