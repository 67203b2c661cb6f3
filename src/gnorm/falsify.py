"""Seeded falsifiers: decoration inequality, triangle inequality, scaling law.

A falsifier either returns a witness that replays exactly from its recorded
data, or reports that no violation was found at the given resolution and
trial budget.  Absence of a witness is evidence, not proof.

Seed discipline: trial t of a run seeded with s draws from the substream
keyed by "s:t", so results are independent of execution order.  A trial
takes its n kernel entries, and a triangle trial its scalar's ``random()``
after them, with one ``getrandbits`` call on its substream; ``_randoms``
turns a chunk's bits into the values ``random()`` would return, and
``_uniform_entries`` into entries exactly as ``random.uniform(-1, 1)``
would, real part before imaginary part: the same values, bit for bit, and
the substream left where per-entry draws leave it.

The random scans evaluate their trials in chunks: a chunk re-seeds one
generator with each trial's key in turn (``_substreams``), each trial's
draws go into (B, p, q) stacks, a chunk plans one route and makes one
batched contraction, and the trials are then scanned in order, so the first
violating trial is the one a trial-by-trial run would return, with the same
values at resolution >= 2; at resolution 1 the values agree only to rounding
(see ``density._means``), and the trials and verdicts are the same.
``_hatami_checks`` is the one evaluation of the decoration inequality, and
``hatami_check``, through which a witness replays, is its one-row call.  A
chunk's magnitudes are one ``np.hypot`` pass, and its rows' verdicts are
tuples (``_verdict``): a ``HatamiCheck`` is built only for a row that a
caller reads, a witness or a one-row call.
The decoration falsifiers test the paper's norm, which conjugates the
colour-0 edges, so they run in conjugate mode only.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Optional

import numpy as np

from .config import DEFAULT, RunConfig
from .graphs import BipartiteGraph, EdgeColouring, check_aligned
from .kernels import Decoration, StepKernel, kernel_to_json, phase_kernel
from .density import _chunks, _decoration_route, _densities, _route, t_density

_SLACK = 1e-9  # inequality slack before a violation is declared


def _substream(seed: int, trial: int) -> random.Random:
    return random.Random(f"{seed}:{trial}")


def _substreams(seed: int, trials: range) -> Iterator[random.Random]:
    """The substream of each trial in a nonempty range, in turn: the first
    trial's generator, re-seeded with each later trial's key, so a chunk
    makes one generator rather than one per trial.  Take a trial's draws
    before asking for the next trial."""
    rng = _substream(seed, trials[0])
    yield rng
    for t in trials[1:]:
        rng.seed(f"{seed}:{t}")
        yield rng


def _randoms(rngs: Iterable[random.Random], k: int) -> np.ndarray:
    """The (trials, k) values that k ``rng.random()`` calls give on each
    generator, from one ``getrandbits`` call per generator.

    A ``random()`` reads two 32-bit words w0, w1 and returns
    ((w0 >> 5) * 2^26 + (w1 >> 6)) * 2^-53, and ``getrandbits(64 * k)``
    returns the 2k words that k calls read, first word least significant;
    every step below is exact in float64, so the values are equal bit for
    bit, and the generator is left where the k calls leave it.
    """
    blocks = [rng.getrandbits(64 * k).to_bytes(8 * k, "little") for rng in rngs]
    words = np.frombuffer(b"".join(blocks), "<u4").reshape(len(blocks), k, 2)
    return ((words[..., 0] >> 5) * 67108864.0 + (words[..., 1] >> 6)) * (1.0 / 9007199254740992.0)


def _uniform_entries(rngs: Iterable[random.Random], n: int) -> np.ndarray:
    """The (trials, n) complex entries that n draws of
    ``complex(rng.uniform(-1, 1), rng.uniform(-1, 1))`` give on each
    generator, real part before imaginary part, from ``_randoms``:
    ``uniform(-1, 1)`` is -1 + 2 * random(), exact in float64."""
    return (-1.0 + 2.0 * _randoms(rngs, 2 * n)).view(np.complex128)


def random_kernel(rng: random.Random, p: int, q: int) -> StepKernel:
    """Entries drawn row by row, real part before imaginary part, each part
    ``rng.uniform(-1, 1)``: one ``getrandbits`` call, converted by
    ``_uniform_entries``."""
    return StepKernel(_uniform_entries([rng], p * q).reshape(p, q))


def _check_budget(trials: int, resolution: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be at least 0, got {trials}")
    if resolution < 1:
        raise ValueError(f"resolution must be at least 1, got {resolution}")


# -- decoration inequality ----------------------------------------------------


@dataclass(frozen=True)
class HatamiCheck:
    """Outcome of one decoration-inequality evaluation.

    ``log_margin`` is sum_e log|t(f_e)| - e(H)*log|t({f_e})|; nonnegative
    means the inequality holds.  Zero denominators are resolved in favour of
    whichever side they make trivial.
    """

    holds: bool
    log_margin: float
    lhs: float   # |t({f_e})|^e
    rhs: float   # prod_e |t(f_e)|


def _verdict(mixed: float, singles: list[float]) -> tuple[bool, float, float, float]:
    """The fields of the check from |t({f_e})| and the e magnitudes
    |t(f_e)|, as a tuple: a chunk builds a ``HatamiCheck`` only for a row
    that a caller reads."""
    e = len(singles)
    lhs = mixed ** e
    rhs = math.prod(singles)
    if mixed <= _SLACK:
        return True, math.inf, lhs, rhs
    if any(s <= _SLACK for s in singles):
        return False, -math.inf, lhs, rhs
    # left to right, as sum() adds floats before Python 3.12 compensates
    # them, so a margin has the same bits on every version
    margin = 0.0
    for s in singles:
        margin += math.log(s)
    margin -= e * math.log(mixed)
    return lhs <= rhs * (1.0 + _SLACK) + _SLACK, margin, lhs, rhs


def _hatami_checks(route, g: BipartiteGraph, a: EdgeColouring,
                   kernels: np.ndarray) -> list[tuple[bool, float, float, float]]:
    """The decoration inequality on each of a stack of decorations:
    ``kernels[n, i]`` is the (p, q) kernel that decoration n puts on edge i.
    One contraction of N * (1 + e) evaluations, each decoration, then the e
    single-kernel densities of its kernels, and one ``np.hypot`` pass for
    their magnitudes, which has the bits of ``abs(complex)``; then each
    row's ``_verdict``."""
    n, e, p, q = kernels.shape
    # row (b, 0) is decoration b; row (b, 1 + j) is its kernel j alone
    vals = _densities(route, g, a, [
        np.concatenate((kernels[:, i:i + 1], kernels), axis=1).reshape(-1, p, q)
        for i in range(e)
    ], "conjugate").reshape(n, 1 + e)
    return [_verdict(mixed, singles)
            for mixed, *singles in np.hypot(vals.real, vals.imag).tolist()]


def hatami_check(
    g: BipartiteGraph,
    a: EdgeColouring,
    dec: Decoration,
    config: RunConfig = DEFAULT,
) -> HatamiCheck:
    """Check |t({f_e})|^e <= prod_e |t(f_e)| up to the slack ``_SLACK``."""
    route = _decoration_route(g, a, dec, "conjugate", "auto", config)
    kernels = np.array([[k.array() for k in dec.kernels]])
    return HatamiCheck(*_hatami_checks(route, g, a, kernels)[0])


@dataclass(frozen=True)
class HatamiWitness:
    """A decoration violating the inequality, with everything needed to replay."""

    seed: int
    trial: int
    colours: tuple[int, ...]
    kernels: tuple[StepKernel, ...]
    lhs: float
    rhs: float
    log_margin: float

    def replay(self, g: BipartiteGraph, config: RunConfig = DEFAULT) -> HatamiCheck:
        return hatami_check(g, EdgeColouring(self.colours), Decoration(self.kernels), config)

    def to_json(self) -> dict:
        return {
            "kind": "decoration-inequality",
            "seed": self.seed,
            "trial": self.trial,
            "colours": list(self.colours),
            "kernels": [kernel_to_json(k) for k in self.kernels],
            "lhs": self.lhs,
            "rhs": self.rhs,
            # -inf when a single-kernel density vanishes; lhs and rhs show it
            "log_margin": self.log_margin if math.isfinite(self.log_margin) else None,
        }


@dataclass(frozen=True)
class HatamiScan:
    witness: Optional[HatamiWitness]
    trials: int
    worst_margin: float

    @property
    def violated(self) -> bool:
        return self.witness is not None


def hatami_random_scan(
    g: BipartiteGraph,
    a: EdgeColouring,
    seed: int,
    trials: int,
    resolution: int = 2,
    config: RunConfig = DEFAULT,
) -> HatamiScan:
    """Test the decoration inequality on independent random decorations.

    Trial t draws e kernels, in edge order, from its own substream, and a
    chunk of trials is one ``_hatami_checks`` call.
    """
    _check_budget(trials, resolution)
    check_aligned(g, a)
    e, r = g.n_edges, resolution
    if e == 0:
        raise ValueError("the decoration inequality needs at least one edge")
    route = _route(g, (r, r), "conjugate", "auto", config)
    worst = math.inf
    for chunk in _chunks(0, trials, route, 1 + e):
        kernels = _uniform_entries(_substreams(seed, chunk), e * r * r).reshape(-1, e, r, r)
        for i, (holds, margin, lhs, rhs) in enumerate(_hatami_checks(route, g, a, kernels)):
            worst = min(worst, margin)
            if not holds:
                witness = HatamiWitness(seed, chunk[i], a.colours,
                                        tuple(map(StepKernel, kernels[i])), lhs, rhs, margin)
                return HatamiScan(witness, chunk[i] + 1, worst)
    return HatamiScan(None, trials, worst)


def hatami_violation_search(
    g: BipartiteGraph,
    a: EdgeColouring,
    seed: int,
    trials: int = 1000,
    resolution: int = 2,
    config: RunConfig = DEFAULT,
) -> Optional[HatamiWitness]:
    """Directed search for a decoration violating the inequality.

    Each trial samples a base kernel f, looks for an edge pair whose deleted
    densities break the symmetry a norming colouring would force, and turns
    the mismatch into a first-order violating decoration: f + eps*z on one
    edge, f - eps*z on the other, f elsewhere, with z a constant kernel
    aligned against the mismatch.  Every candidate is re-verified before
    being returned, so no witness is ever fabricated.  Each candidate is a
    one-row ``_hatami_checks`` call.
    """
    _check_budget(trials, resolution)
    check_aligned(g, a)
    e = g.n_edges
    if e < 2:
        return None
    route = _route(g, (resolution, resolution), "conjugate", "auto", config)
    for t in range(trials):
        rng = _substream(seed, t)
        f = random_kernel(rng, resolution, resolution)
        tv, *deleted = _deleted_densities(route, g, a, f)
        if abs(tv) < 1e-6:
            continue
        for i, j in permutations(range(e), 2):
            z = _mismatch_direction(a[i], a[j], deleted[i], deleted[j], tv)
            if z is None:
                continue
            for eps in (0.25, 0.125, 0.0625, 0.03125):
                # f on every edge but f + eps*z on edge i and f - eps*z on edge j
                step = np.full(f.shape, complex(eps * z))
                kernels = np.array([f.array()] * e)
                kernels[i] += step
                kernels[j] += -1.0 * step
                holds, margin, lhs, rhs = _hatami_checks(route, g, a, kernels[None])[0]
                if not holds:
                    return HatamiWitness(seed, t, a.colours, tuple(map(StepKernel, kernels)),
                                         lhs, rhs, margin)
    return None


def _deleted_densities(route, g, a, f: StepKernel) -> list[complex]:
    """t(f), then for each edge the density with that edge's kernel replaced
    by the constant 1, in one batched evaluation."""
    e = g.n_edges
    # stack[k, i] is the kernel edge i carries in row k; row 1 + j drops edge j
    stack = np.array(np.broadcast_to(f.array(), (1 + e, e, *f.shape)))
    stack[np.arange(1, e + 1), np.arange(e)] = 1.0
    return _densities(route, g, a, [stack[:, i] for i in range(e)], "conjugate").tolist()


def _mismatch_direction(ci, cj, ti, tj, tv) -> Optional[complex]:
    """Constant z making the first-order decoration term push past equality.

    Same-colour edges need equal deleted densities, opposite colours need
    them conjugate after normalising by the full density; returns None when
    the corresponding identity holds (no leverage), else a unit-scale z with
    Re(first-order delta / t) > 0.  Opposite-colour pairs are only handled
    with the colour-1 edge first; the transposed pair covers the other order.
    """
    if ci == cj:
        diff = ti - tj
        if abs(diff) < 1e-9 * max(1.0, abs(tv)):
            return None
        z = tv * diff.conjugate()
        if ci == 0:
            z = z.conjugate()
        return z / abs(z)
    if ci == 0:
        return None
    x = ti / tv
    y = tj / tv
    if abs(x - y.conjugate()) < 1e-9:
        return None
    if x.real > y.real:
        return 1.0 + 0j
    if x.real < y.real:
        return -1.0 + 0j
    return -1j if (x + y).imag > 0 else 1j


# -- triangle inequality and the scaling law -----------------------------------


@dataclass(frozen=True)
class TriangleWitness:
    """Violation of the triangle inequality or of the scaling identity."""

    kind: str  # "triangle" or "scaling"
    seed: int
    trial: int
    colours: tuple[int, ...]
    f: StepKernel
    g2: Optional[StepKernel]   # second kernel for triangle violations
    c: Optional[complex]       # scalar for scaling violations
    values: dict

    def replay(self, graph: BipartiteGraph, config: RunConfig = DEFAULT) -> bool:
        a = EdgeColouring(self.colours)
        e = graph.n_edges

        def density(f: StepKernel) -> complex:
            return t_density(graph, a, f, config=config)

        if self.kind == "triangle":
            sums = (density(self.f.add(self.g2)), density(self.f), density(self.g2))
            return _triangle(*sums, e) is not None
        sums = (density(self.f), density(self.f.scale(self.c)))
        return _scaling(*sums, self.c, e) is not None

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "seed": self.seed,
            "trial": self.trial,
            "colours": list(self.colours),
            "f": kernel_to_json(self.f),
            "values": {k: [v.real, v.imag] if isinstance(v, complex) else v
                       for k, v in self.values.items()},
        }
        if self.g2 is not None:
            out["g"] = kernel_to_json(self.g2)
        if self.c is not None:
            out["c"] = [self.c.real, self.c.imag]
        return out


def _triangle(t_sum: complex, t_f: complex, t_g: complex, e: int) -> Optional[dict]:
    """A triangle witness's values from t(f + g), t(f) and t(g), or None
    when |t(.)|^(1/e) obeys the triangle inequality on the pair."""
    ns, nf, ng = (abs(x) ** (1.0 / e) for x in (t_sum, t_f, t_g))
    if ns > nf + ng + _SLACK:
        return {"norm_sum": ns, "norm_f": nf, "norm_g": ng}
    return None


def _scaling(t_f: complex, t_cf: complex, c: complex, e: int) -> Optional[dict]:
    """A scaling witness's values from t(f) and t(c*f), or None when
    t(c*f) = |c|^e * t(f) within the slack."""
    expected = (abs(c) ** e) * t_f
    if abs(t_cf - expected) > _SLACK * max(1.0, abs(expected)):
        return {"t_cf": t_cf, "expected": expected, "t_f": t_f}
    return None


@dataclass(frozen=True)
class FalsifierResult:
    witness: Optional[TriangleWitness]
    trials: int

    @property
    def violated(self) -> bool:
        return self.witness is not None


def triangle_falsifier(
    g: BipartiteGraph,
    a: EdgeColouring,
    seed: int,
    trials: int = 10_000,
    resolution: int = 2,
    config: RunConfig = DEFAULT,
) -> FalsifierResult:
    """Search for a norm-axiom violation of |t(.)|^(1/e) under the colouring.

    Trial 0 tries structured candidates first: the roots-of-unity phase
    kernel plus its conjugate (which separates balanced from unbalanced
    colourings exactly), and the scaling law t(c*f) = |c|^e * t(f) with
    eighth-root scalars.  The three phase candidates are one contraction;
    the constants are one-row contractions, because at resolution 1 a stack
    of 1x1 kernels is multiplied in another numpy loop than a lone one, and
    its values would differ in the last bits.  Later trials are independent
    random pairs f, g with a unit scalar c, drawn in that order from the
    trial's substream, and a chunk of B of them is one contraction of the
    4B kernels f + g, f, g and c*f.  A trial tests the triangle inequality
    before the scaling law.
    """
    _check_budget(trials, resolution)
    check_aligned(g, a)
    e, r = g.n_edges, resolution
    if e == 0:
        raise ValueError("the triangle falsifier needs at least one edge")
    if trials == 0:
        return FalsifierResult(None, 0)

    def densities(route, kernels: list[StepKernel]) -> list[complex]:
        stack = np.stack([k.array() for k in kernels])
        return _densities(route, g, a, [stack] * e, "conjugate").tolist()

    pk = phase_kernel(max(r, max(g.degrees) + 1))
    phase_route = _route(g, pk.shape, "conjugate", "auto", config)
    values = _triangle(*densities(phase_route, [pk.add(pk.conj()), pk, pk.conj()]), e)
    if values:
        return FalsifierResult(
            TriangleWitness("triangle", seed, 0, a.colours, pk, pk.conj(), None, values), 1)
    route = _route(g, (r, r), "conjugate", "auto", config)
    one = StepKernel.constant(1.0, r, r)
    t_one = densities(route, [one])[0]
    for c in (cmath.exp(1j * math.pi / 4), 1j, cmath.exp(1j * math.pi / 3)):
        values = _scaling(t_one, densities(route, [one.scale(c)])[0], c, e)
        if values:
            return FalsifierResult(
                TriangleWitness("scaling", seed, 0, a.colours, one, None, c, values), 1)

    for chunk in _chunks(1, trials, route, 4):
        # a trial's 4r^2 uniform parts, f's entries then g's, and then the
        # random() of its scalar
        draws = _randoms(_substreams(seed, chunk), 4 * r * r + 1)
        pairs = (-1.0 + 2.0 * draws[:, :-1]).view(np.complex128).reshape(-1, 2, r, r)
        scalars = [cmath.exp(2j * math.pi * x) for x in draws[:, -1].tolist()]
        fs, gs = pairs[:, 0], pairs[:, 1]
        stack = np.concatenate((fs + gs, fs, gs, np.array(scalars)[:, None, None] * fs))
        vals = _densities(route, g, a, [stack] * e, "conjugate").reshape(4, -1).T.tolist()
        for i, (t_sum, t_f, t_g, t_cf) in enumerate(vals):
            t = chunk[i]
            values = _triangle(t_sum, t_f, t_g, e)
            if values:
                return FalsifierResult(TriangleWitness(
                    "triangle", seed, t, a.colours, StepKernel(fs[i]), StepKernel(gs[i]), None,
                    values), t + 1)
            values = _scaling(t_f, t_cf, scalars[i], e)
            if values:
                return FalsifierResult(TriangleWitness(
                    "scaling", seed, t, a.colours, StepKernel(fs[i]), None, scalars[i], values),
                    t + 1)
    return FalsifierResult(None, trials)
