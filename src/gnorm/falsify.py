"""Seeded falsifiers: decoration inequality, triangle inequality, scaling law.

A falsifier either returns a witness that replays exactly from its recorded
data, or reports that no violation was found at the given resolution and
trial budget.  Absence of a witness is evidence, not proof.

Seed discipline: trial t of a run seeded with s draws from the substream
keyed by "s:t", so results are independent of execution order.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from typing import Optional

from .config import DEFAULT, RunConfig
from .graphs import BipartiteGraph, EdgeColouring, check_aligned
from .kernels import Decoration, StepKernel, kernel_to_json, phase_kernel
from .density import t_decoration, t_density


def _substream(seed: int, trial: int) -> random.Random:
    return random.Random(f"{seed}:{trial}")


def random_kernel(rng: random.Random, p: int, q: int, complex_entries: bool = True) -> StepKernel:
    """Entries drawn row by row, real part before imaginary part."""
    return StepKernel([
        [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0) if complex_entries else 0.0)
         for _ in range(q)]
        for _ in range(p)
    ])


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

    def __bool__(self) -> bool:
        return self.holds


def hatami_check(
    g: BipartiteGraph,
    a: EdgeColouring,
    dec: Decoration,
    mode: str = "conjugate",
    config: RunConfig = DEFAULT,
) -> HatamiCheck:
    """Check |t({f_e})|^e <= prod_e |t(f_e)| with the configured slack."""
    check_aligned(g, a)
    e = g.n_edges
    mixed = abs(t_decoration(g, a, dec, mode, config=config))
    singles = [abs(t_density(g, a, dec[i], mode, config=config)) for i in range(e)]
    lhs = mixed ** e
    rhs = math.prod(singles)
    tol = config.tol_falsify
    if mixed <= tol:
        return HatamiCheck(True, math.inf, lhs, rhs)
    if any(s <= tol for s in singles) :
        return HatamiCheck(False, -math.inf, lhs, rhs)
    margin = sum(math.log(s) for s in singles) - e * math.log(mixed)
    holds = lhs <= rhs * (1.0 + tol) + tol
    return HatamiCheck(holds, margin, lhs, rhs)


@dataclass(frozen=True)
class HatamiWitness:
    """A decoration violating the inequality, with everything needed to replay."""

    seed: int
    trial: int
    mode: str
    colours: tuple[int, ...]
    kernels: tuple[StepKernel, ...]
    lhs: float
    rhs: float
    log_margin: float

    def replay(self, g: BipartiteGraph, config: RunConfig = DEFAULT) -> HatamiCheck:
        return hatami_check(
            g, EdgeColouring(self.colours), Decoration(self.kernels), self.mode, config
        )

    def to_json(self) -> dict:
        return {
            "kind": "decoration-inequality",
            "seed": self.seed,
            "trial": self.trial,
            "mode": self.mode,
            "colours": list(self.colours),
            "kernels": [kernel_to_json(k) for k in self.kernels],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "log_margin": self.log_margin,
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
    mode: str = "conjugate",
    config: RunConfig = DEFAULT,
) -> HatamiScan:
    """Test the decoration inequality on independent random decorations."""
    check_aligned(g, a)
    worst = math.inf
    for t in range(trials):
        rng = _substream(seed, t)
        dec = Decoration(
            tuple(random_kernel(rng, resolution, resolution) for _ in range(g.n_edges))
        )
        res = hatami_check(g, a, dec, mode, config)
        worst = min(worst, res.log_margin)
        if not res.holds:
            return HatamiScan(
                HatamiWitness(seed, t, mode, a.colours, dec.kernels,
                              res.lhs, res.rhs, res.log_margin),
                t + 1,
                worst,
            )
    return HatamiScan(None, trials, worst)


def hatami_violation_search(
    g: BipartiteGraph,
    a: EdgeColouring,
    seed: int,
    trials: int = 1000,
    resolution: int = 2,
    mode: str = "conjugate",
    config: RunConfig = DEFAULT,
) -> Optional[HatamiWitness]:
    """Directed search for a decoration violating the inequality.

    Each trial samples a base kernel f, looks for an edge pair whose deleted
    densities break the symmetry a norming colouring would force, and turns
    the mismatch into a first-order violating decoration: f + eps*z on one
    edge, f - eps*z on the other, f elsewhere, with z a constant kernel
    aligned against the mismatch.  The z-selection assumes the conjugate-mode
    first-order structure; every candidate is re-verified before being
    returned, so no witness is ever fabricated in either mode.
    """
    check_aligned(g, a)
    e = g.n_edges
    if e < 2:
        return None
    for t in range(trials):
        rng = _substream(seed, t)
        f = random_kernel(rng, resolution, resolution)
        tv = t_density(g, a, f, mode, config=config)
        if abs(tv) < 1e-6:
            continue
        deleted = [_deleted_density(g, a, f, i, mode, config) for i in range(e)]
        for i in range(e):
            for j in range(e):
                if i == j:
                    continue
                z = _mismatch_direction(a[i], a[j], deleted[i], deleted[j], tv)
                if z is None:
                    continue
                for eps in (0.25, 0.125, 0.0625, 0.03125):
                    kernels = list(Decoration.uniform(f, e).kernels)
                    zk = StepKernel.constant(eps * z, *f.shape)
                    kernels[i] = f.add(zk)
                    kernels[j] = f.add(zk.scale(-1.0))
                    dec = Decoration(tuple(kernels))
                    res = hatami_check(g, a, dec, mode, config)
                    if not res.holds:
                        return HatamiWitness(seed, t, mode, a.colours, dec.kernels,
                                             res.lhs, res.rhs, res.log_margin)
    return None


def _deleted_density(g, a, f, drop: int, mode: str, config) -> complex:
    """Density with one edge replaced by the constant-1 kernel."""
    kernels = list(Decoration.uniform(f, g.n_edges).kernels)
    kernels[drop] = StepKernel.constant(1.0, *f.shape)
    return t_decoration(g, a, Decoration(tuple(kernels)), mode, config=config)


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
        tol = config.tol_falsify
        if self.kind == "triangle":
            nf = abs(t_density(graph, a, self.f, config=config)) ** (1 / e)
            ng = abs(t_density(graph, a, self.g2, config=config)) ** (1 / e)
            ns = abs(t_density(graph, a, self.f.add(self.g2), config=config)) ** (1 / e)
            return ns > nf + ng + tol
        tf = t_density(graph, a, self.f, config=config)
        tcf = t_density(graph, a, self.f.scale(self.c), config=config)
        expected = (abs(self.c) ** e) * tf
        return abs(tcf - expected) > tol * max(1.0, abs(expected))

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
    eighth-root scalars.  Later trials are independent random pairs.
    """
    check_aligned(g, a)
    e = g.n_edges
    tol = config.tol_falsify

    def norm(f: StepKernel) -> float:
        return abs(t_density(g, a, f, config=config)) ** (1.0 / e)

    def triangle_witness(t, f, f2) -> Optional[TriangleWitness]:
        ns, nf, ng = norm(f.add(f2)), norm(f), norm(f2)
        if ns > nf + ng + tol:
            return TriangleWitness("triangle", seed, t, a.colours, f, f2, None,
                                   {"norm_sum": ns, "norm_f": nf, "norm_g": ng})
        return None

    def scaling_witness(t, f, c) -> Optional[TriangleWitness]:
        tf = t_density(g, a, f, config=config)
        tcf = t_density(g, a, f.scale(c), config=config)
        expected = (abs(c) ** e) * tf
        if abs(tcf - expected) > tol * max(1.0, abs(expected)):
            return TriangleWitness("scaling", seed, t, a.colours, f, None, c,
                                   {"t_cf": tcf, "expected": expected, "t_f": tf})
        return None

    max_deg = max(g.degree(v) for v in g.vertices)
    structured_p = max(resolution, max_deg + 1)

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
