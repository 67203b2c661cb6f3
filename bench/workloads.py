"""Seeded inputs, job lists and output checks for the three workloads.

Every workload is a closed loop with one caller: one process, one thread,
jobs run in order.  Inputs come only from the workload seed; each timed job
does the same amount of work whatever the seed.  Output checks run outside
the timed region and outside traced spans.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

import numpy as np

from gnorm import certify, density, falsify
from gnorm.constructions import bipartite_kneser, hypercube, subdivided_complete
from gnorm.graphs import BipartiteGraph, EdgeColouring, complete_bipartite, cycle
from gnorm.kernels import StepKernel

@dataclass
class Job:
    name: str
    run: Callable[[], object]
    work: int                       # falsifier trials or density evaluations
    check: Callable[[object], str]  # "" when the output is right, else why not


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    # (name, thunk returning "" or why it failed): checks that are not jobs
    extra_checks: list[tuple[str, Callable[[], str]]] = field(default_factory=list)


def _late(module, attr: str, *args) -> Callable[[], object]:
    """Job body that looks the function up when it runs, so that the tracer's
    wrapper on the module attribute sees the call."""
    return lambda: getattr(module, attr)(*args)


def build(name: str, seed: int, small: bool = False) -> Workload:
    """The workload's job list; ``small`` gives a tiny smoke-test version."""
    return BUILDERS[name](seed, small)


def relabel(g: BipartiteGraph, rng: random.Random) -> BipartiteGraph:
    """An isomorphic copy with shuffled vertex names.

    The order of the sides and of the edges is kept: the searches in
    ``symmetry`` and ``certify`` stop early at points that depend on that
    order, so shuffling it makes the work of a job depend on the seed (Q4's
    certificate took 3.8-4.3 s over six edge orders, 3.7-3.9 s over six name
    shuffles).
    """
    fresh = [f"v{i}" for i in range(g.n_vertices)]
    rng.shuffle(fresh)
    name = dict(zip(g.vertices, fresh))
    return BipartiteGraph(tuple(name[v] for v in g.left), tuple(name[v] for v in g.right),
                          tuple((name[u], name[v]) for u, v in g.edges))


# -- certify-survey -------------------------------------------------------------

# Pinned outcomes hold for every relabelling, since verdicts do not change
# under isomorphism.  Q4 loads the transitive-colouring filter, K_{4,4} the
# counting-law reference scan, H(6,2) the automorphism search; the rest are
# controls.  set_inclusion_graph(6,3,1) is left out: its automorphism search
# runs for more than a minute and would swamp every other job.
_NO_OBSTRUCTION = "NoObstructionFound"


def _certify_checker(expected: str, capped_stages: tuple[str, ...] = ()):
    def check(cert) -> str:
        got = cert.obstruction or cert.verdict
        if got != expected:
            return f"expected {expected}, got {got}"
        capped = tuple(s["stage"] for s in cert.stages if s["status"] == "cap-exceeded")
        if capped != capped_stages or cert.cap_hit:
            return f"unexpected caps: stages {capped}, cap_hit={cert.cap_hit}"
        return ""
    return check


def _certify_survey(seed: int, small: bool) -> Workload:
    rng = random.Random(f"certify-survey:{seed}")
    graphs = [
        ("C6", cycle(6), _NO_OBSTRUCTION),
        ("K_{2,4}", complete_bipartite(2, 4), _NO_OBSTRUCTION),
        ("subdivided K5", subdivided_complete(5), "NoTransitiveColouring"),
    ]
    families = [("kneser", (7, 3), "IntegralityFailure")]
    if not small:
        graphs = [
            ("Q4", hypercube(4), "KappaNotMaximal"),
            ("K_{4,4}", complete_bipartite(4, 4), _NO_OBSTRUCTION),
            ("K_{2,6}", complete_bipartite(2, 6), _NO_OBSTRUCTION),
            ("C8", cycle(8), _NO_OBSTRUCTION),
            ("C10", cycle(10), _NO_OBSTRUCTION),
        ] + graphs
        families += [
            ("hypercube", (6,), "KappaNotMaximal"),
            ("inclusion", (6, 4, 1), "NoTransitiveColouring"),
            ("subdivided-complete", (5,), "NoTransitiveColouring"),
            ("subdivided-complete", (7,), "KappaNotMaximal"),
        ]
    jobs = [
        Job(f"certify {label}", _late(certify, "certify_not_norming", relabel(g, rng)), 1,
            _certify_checker(expected))
        for label, g, expected in graphs
    ]
    if not small:
        jobs.append(Job(
            "certify H(6,2) hint kneser:6:2",
            _late(certify, "certify_not_norming",
                  relabel(bipartite_kneser(6, 2), rng), ("kneser", 6, 2)),
            1, _certify_checker("ClassAViolation", ("balanced-colourings",))))
    jobs += [
        Job(f"family {fam} {' '.join(map(str, params))}",
            _late(certify, "certify_family", fam, params), 1, _certify_checker(expected))
        for fam, params, expected in families
    ]
    return Workload("certify-survey", jobs)


# -- falsify-scan ---------------------------------------------------------------

_FALSIFY_TRIALS = 100
_FALSIFY_ROUNDS = 25    # rounds x 4 calls = 100 timed calls


def _no_violation(trials: int):
    def check(res) -> str:
        if res.violated:
            return f"violation on a norming colouring at trial {res.witness.trial}"
        if res.trials != trials:
            return f"ran {res.trials} trials, expected {trials}"
        return ""
    return check


def _falsify_scan(seed: int, small: bool) -> Workload:
    rng = random.Random(f"falsify-scan:{seed}")
    trials = 3 if small else _FALSIFY_TRIALS
    cases = [("C4", cycle(4), EdgeColouring((1, 0, 1, 0))),
             ("C6", cycle(6), EdgeColouring((1, 0, 1, 0, 1, 0)))]
    jobs = []
    for _ in range(1 if small else _FALSIFY_ROUNDS):
        for label, g, a in cases:
            jobs.append(Job(
                f"triangle {label}",
                _late(falsify, "triangle_falsifier", g, a, rng.randrange(1 << 31), trials, 2),
                trials, _no_violation(trials)))
            jobs.append(Job(
                f"decoration {label}",
                _late(falsify, "hatami_random_scan", g, a, rng.randrange(1 << 31), trials, 2),
                trials, _no_violation(trials)))

    # The witness searches stop at a seed-dependent trial, so they are output
    # checks only, never timed jobs.
    c4 = cycle(4)
    hatami_seed, triangle_seed = rng.randrange(1 << 31), rng.randrange(1 << 31)

    def hatami_witness() -> str:
        w = falsify.hatami_violation_search(c4, EdgeColouring((1, 1, 1, 0)), hatami_seed)
        if w is None:
            return "no decoration-inequality witness on C4 colouring 1110"
        return "" if not w.replay(c4).holds else "witness does not replay"

    def triangle_witness() -> str:
        res = falsify.triangle_falsifier(c4, EdgeColouring((1, 1, 1, 1)), triangle_seed)
        if res.witness is None:
            return "no norm-axiom witness on C4 colouring 1111"
        return "" if res.witness.replay(c4) else "witness does not replay"

    return Workload("falsify-scan", jobs, [
        ("decoration witness C4 1110", hatami_witness),
        ("triangle witness C4 1111", triangle_witness),
    ])


# -- density-sweep ------------------------------------------------------------------

# (label, graph, grid size p, kernel pairs).  Every pair has p^|V| > 4096, so
# the "auto" route picks elimination for every evaluation.
def _density_specs(small: bool):
    if small:
        return [("C8", cycle(8), 3, 1)]
    return [("C8", cycle(8), 3, 25),
            ("K_{2,4}", complete_bipartite(2, 4), 5, 24),
            ("Q3", hypercube(3), 3, 1)]


_RHO_M = 2
_SMAX_RTOL = 1e-12
_RHO_RTOL = 1e-9


def _random_kernel(rng: random.Random, p: int, complex_entries: bool) -> StepKernel:
    return StepKernel(tuple(
        tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1) if complex_entries else 0.0)
              for _ in range(p))
        for _ in range(p)))


def oracle_density(g: BipartiteGraph, colours, f: StepKernel, mode: str) -> complex:
    """t_a(f) by summing out the right side first, one right vertex at a time.

    Shares no code with the library's routes: no full assignment tensor, no
    elimination order, no einsum.
    """
    arr = f.array()
    nl = len(g.left)
    p, q = arr.shape
    if mode == "transpose":
        q = p
    lidx = {v: i for i, v in enumerate(g.left)}
    left = np.indices((p,) * nl).reshape(nl, -1)   # every left assignment
    acc = np.ones(left.shape[1], dtype=np.complex128)
    for v in g.right:
        col = np.ones((left.shape[1], q), dtype=np.complex128)
        for i, (u, w) in enumerate(g.edges):
            if w != v:
                continue
            if colours[i] == 1:
                table = arr
            elif mode == "conjugate":
                table = arr.conj()
            else:
                table = arr.T
            col *= table[left[lidx[u]], :]
        acc *= col.mean(axis=1)
    return complex(acc.mean())


def _rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


def _smax_checker(g, f):
    def check(res) -> str:
        direct = abs(density.t_density(g, res.argmax, f, "conjugate", method="direct"))
        err = _rel_err(res.value, direct)
        return "" if err <= _SMAX_RTOL else f"argmax re-evaluation differs by {err:.3g}"
    return check


def _rho_checker(g, f):
    def check(res) -> str:
        total = sum(oracle_density(g, bits, f, "transpose") ** (2 * _RHO_M)
                    for bits in product((0, 1), repeat=g.n_edges))
        ref = max(total.real, 0.0) ** (1.0 / (2 * _RHO_M))
        err = _rel_err(res, ref)
        return "" if err <= _RHO_RTOL else f"rho_{2 * _RHO_M} differs from the oracle by {err:.3g}"
    return check


def _density_sweep(seed: int, small: bool) -> Workload:
    rng = random.Random(f"density-sweep:{seed}")
    jobs = []
    for label, g, p, pairs in _density_specs(small):
        evals = 2 ** g.n_edges
        for _ in range(pairs):
            f = _random_kernel(rng, p, complex_entries=True)
            h = _random_kernel(rng, p, complex_entries=False)
            jobs.append(Job(f"s_max {label} p={p}", _late(density, "s_max", g, f, "conjugate"),
                            evals, _smax_checker(g, f)))
            jobs.append(Job(f"rho_{2 * _RHO_M} {label} p={p}",
                            _late(density, "rho_2m", g, h, _RHO_M, "transpose"),
                            evals, _rho_checker(g, h)))
    return Workload("density-sweep", jobs)


def check_job(job: Job, output) -> str:
    """Why the job's output is wrong, or "" when it is right."""
    if isinstance(output, BaseException):
        return f"raised {type(output).__name__}: {output}"
    try:
        return job.check(output)
    except Exception as exc:  # a broken output must not stop the other checks
        return f"check raised {type(exc).__name__}: {exc}"


def same_output(a, b) -> bool:
    """Outputs of two passes agree exactly."""
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return False
    return a == b


BUILDERS = {
    "certify-survey": _certify_survey,
    "falsify-scan": _falsify_scan,
    "density-sweep": _density_sweep,
}
