"""Built-in verification suite: formula reproduction and property checks at
desk scale, runnable from the CLI (``gnorm reproduce``) or from pytest.

Each row returns a dict with an ``ok`` flag and enough detail to see what was
computed; rows also enforce their own wall-clock budget.  Expected values are
either pinned constants cross-checked by an independent computation in the
row itself, or closed-form targets evaluated in exact arithmetic.
"""

from __future__ import annotations

import cmath
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable

import numpy as np

from .arithmetic import (
    _class_a_case,
    class_A_membership,
    is_prime_power,
    kneser_integrality_test,
)
from .certify import certify_family, certify_not_norming
from .config import DEFAULT, RunConfig
from .cycles import _class_counts, _profile, enumerate_cycles, kappa_alternating
from .constructions import (
    Tournament,
    clockwise_tournament,
    colouring_from_tournament,
    count_directed_cycles,
    hypercube,
    hypercube_alpha,
    hypercube_beta,
    quadratic_residue_tournament,
    regular_tournaments,
    subdivided_complete,
    tournament_from_colouring,
)
from .density import (
    _sweep,
    expansion_tail_bound,
    perturbed_kernel,
    second_order_expansion,
    t_density,
)
from .errors import InvalidParameter
from .falsify import (
    hatami_check,
    hatami_random_scan,
    hatami_violation_search,
    random_kernel,
    triangle_falsifier,
)
from .graphs import (
    EdgeColouring,
    _balanced_rows,
    _colouring_rows,
    complete_bipartite,
    cycle,
    iter_balanced_colourings,
    star,
)
from .kernels import Decoration, StepKernel, phase_kernel


@dataclass(frozen=True)
class Row:
    rid: str
    title: str
    budget_s: float
    run: Callable[[RunConfig], dict]


def _row_tournament_three_cycles(config: RunConfig) -> dict:
    """kappa3 = n*d*(d+1)/6 on every regular tournament with n <= 7, and the
    score identity kappa3 = C(n,3) - sum_i C(s_i,2) (Kendall and Babington
    Smith, 1940) on every labelled tournament with n <= 5.  With every score
    s_i = d, the identity gives n*d*(d+1)/6 for each odd n = 2d+1."""
    regular = {}
    for n in (3, 5, 7):
        d = (n - 1) // 2
        want = n * d * (d + 1) // 6
        count = 0
        for t in regular_tournaments(n):
            count += 1
            if count_directed_cycles(t, 3) != want:
                return {"ok": False, "n": n, "bad": t.to_json()}
        regular[n] = count
    labelled = {}
    for n in (3, 4, 5):
        pairs = list(combinations(range(n), 2))
        for bits in product((0, 1), repeat=len(pairs)):
            t = Tournament(n, tuple((x, y) if b else (y, x)
                                    for (x, y), b in zip(pairs, bits)))
            want = math.comb(n, 3) - sum(math.comb(len(s), 2) for s in t.out_neighbours)
            if count_directed_cycles(t, 3) != want:
                return {"ok": False, "n": n, "bad": t.to_json()}
        labelled[n] = 2 ** len(pairs)
    return {"ok": True, "tournaments": regular, "score_identity": labelled}


def _row_tournament_four_cycles(config: RunConfig) -> dict:
    """Directed 4-cycles: 28 in the clockwise 7-tournament, 21 in the
    quadratic-residue one, matching n*C(d+1,3) and (3/4)*n*C(d+1,3)."""
    t7 = clockwise_tournament(7)
    qr7 = quadratic_residue_tournament(7)
    k4_clock = count_directed_cycles(t7, 4)
    k4_qr = count_directed_cycles(qr7, 4)
    d = 3
    ok = (
        k4_clock == 28 == 7 * math.comb(d + 1, 3)
        and k4_qr == 21 == 3 * 7 * math.comb(d + 1, 3) // 4
    )
    return {"ok": ok, "clockwise": k4_clock, "quadratic_residue": k4_qr}


def _row_hypercube_identities(config: RunConfig) -> dict:
    """Q4: 24 four-cycles, the two canonical profiles, and the linear
    identities on every balanced colouring without three-one 4-cycles."""
    q4 = hypercube(4)
    cycles = enumerate_cycles(q4, 4, config)
    ok = len(cycles) == 24
    pa = _profile(hypercube_alpha(4).colours, cycles)
    pb = _profile(hypercube_beta(4).colours, cycles)
    ok &= (pa.c1, pa.c2, pa.c3, pa.c4) == (16, 8, 0, 0)
    ok &= (pb.c1, pb.c2, pb.c3, pb.c4) == (8, 0, 16, 0)
    balanced = _balanced_rows(q4, config)
    c1, c2, c3, c4 = _class_counts(balanced, cycles).T
    eligible = c4 == 0
    bad = np.flatnonzero(eligible & ((4 * c1 + 2 * c3 != 64) | (c1 != c2 + 8)))
    if bad.size:
        return {"ok": False, "bad_colouring": balanced[bad[0]].tolist()}
    return {
        "ok": ok,
        "four_cycles": len(cycles),
        "alpha_profile": pa.to_json(),
        "beta_profile": pb.to_json(),
        "balanced_scanned": len(balanced),
        "no_three_one": int(eligible.sum()),
    }


def _row_certificates(config: RunConfig) -> dict:
    """Hypercube 4 fails by the kappa/pattern dichotomy, hypercube 3 by odd
    degrees, and the 6-cycle passes with the alternating colouring."""
    c4cert = certify_family("hypercube", [4], config)
    ok = (
        c4cert.verdict == "NotNorming"
        and c4cert.obstruction in ("KappaNotMaximal", "FourCyclePatternSuboptimal")
        and "dichotomy" in c4cert.witness
        and c4cert.witness["dichotomy"]["none"] == 0
    )
    c3cert = certify_family("hypercube", [3], config)
    ok &= c3cert.verdict == "NotNorming" and c3cert.obstruction == "NotEulerian"
    c6cert = certify_not_norming(cycle(6), None, config)
    alternating = [1, 0, 1, 0, 1, 0]
    ok &= (
        c6cert.verdict == "NoObstructionFound"
        and any(c in c6cert.surviving for c in (alternating, [0, 1, 0, 1, 0, 1]))
    )
    return {
        "ok": ok,
        "hypercube4": {"verdict": c4cert.verdict, "obstruction": c4cert.obstruction},
        "hypercube3": {"verdict": c3cert.verdict, "obstruction": c3cert.obstruction},
        "cycle6": {"verdict": c6cert.verdict, "surviving": c6cert.surviving},
    }


def _published_kneser_case(n: int, r: int) -> bool:
    # independent re-encoding of the five-clause parameter list
    if r == 1:
        return n % 2 == 1
    if r == 2:
        return n % 4 == 3 and is_prime_power(n - 2)
    if r == 3 and n % 4 == 1 and is_prime_power(n - 4):
        return True
    if r % 2 == 1 and r >= 3 and n == 2 * r + 1:
        return True
    return (
        r >= 7
        and r % 4 == 3
        and is_prime_power(r + 2)
        and n in (2 * r + 2, 2 * r + 3)
    )


def _row_kneser_arithmetic(config: RunConfig) -> dict:
    """Integrality value 100/3 for (7, 3); the class-A clauses at k = n - r,
    which certificates cite as the published case list, match that list as
    stated for H(n, r); class membership is duality-closed."""
    res = kneser_integrality_test(7, 3)
    ok = res.d == Fraction(100, 3) and not res.is_integer
    mismatches = []
    for n in range(3, 14):
        for r in range(1, 6):
            if n <= 2 * r:
                continue
            if (_class_a_case(n - r, r) is not None) != _published_kneser_case(n, r):
                mismatches.append((n, r))
    ok &= not mismatches
    dual_bad = [
        (k, r)
        for k in range(2, 17)
        for r in range(1, k)
        if class_A_membership(k, r) != class_A_membership(k, k - r)
    ]
    ok &= not dual_bad
    return {"ok": ok, "d_7_3": [res.d.numerator, res.d.denominator],
            "list_mismatches": mismatches, "duality_failures": dual_bad}


_REL_TOL = 1e-12  # relative tolerance of the exact-evaluation checks


def _row_dual_path(config: RunConfig) -> dict:
    """Direct and elimination-order evaluation agree to 1e-12 relative on 100
    seeded random instances."""
    graphs = [cycle(4), cycle(6), complete_bipartite(2, 3), hypercube(3)]
    rng = random.Random(0xD0A1)
    worst = 0.0
    for trial in range(100):
        g = graphs[trial % len(graphs)]
        p = rng.randint(1, 4)
        q = rng.randint(1, 4)
        mode = "conjugate"
        if p == q and rng.random() < 0.5:
            mode = "transpose"
        f = StepKernel([[complex(rng.uniform(0.1, 1.1), rng.uniform(-0.3, 0.3))
                         for _ in range(q)] for _ in range(p)])
        col = EdgeColouring(tuple(rng.randint(0, 1) for _ in range(g.n_edges)))
        direct = t_density(g, col, f, mode, "direct", config)
        elim = t_density(g, col, f, mode, "eliminate", config)
        rel = abs(direct - elim) / max(abs(direct), abs(elim), 1e-300)
        worst = max(worst, rel)
        if rel > _REL_TOL:
            return {"ok": False, "trial": trial, "relative_error": rel}
    return {"ok": True, "instances": 100, "worst_relative_error": worst}


def _row_trig_closed_forms(config: RunConfig) -> dict:
    """With P = phase_kernel(p), p above every degree, the mean over a
    vertex's grid variable is 1 when its signed edge count is 0 (mod p, so
    exactly) and 0 otherwise: t_a(P) is the balance indicator, and for
    c = exp(2*pi*i/k), t_a(c*(P + conj P)) = N*exp(2*pi*i*(2w - e)/k), N the
    balanced colourings (from the enumerator) and w the colour-1 edges of a.
    One exact sweep per kernel covers every colouring of C4, C6, C8, K_{2,4}
    and Q3 (odd degrees, so N = 0)."""
    graphs = {"C4": cycle(4), "C6": cycle(6), "C8": cycle(8),
              "K_{2,4}": complete_bipartite(2, 4), "Q3": hypercube(3)}
    balanced = {}
    worst = 0.0
    for name, g in graphs.items():
        e = g.n_edges
        rows = _balanced_rows(g, config)
        n = len(rows)
        indicator = np.zeros(1 << e)
        indicator[rows @ (1 << np.arange(e - 1, -1, -1))] = 1.0
        w = _colouring_rows(e, 0, 1 << e).sum(axis=1)
        phase = phase_kernel(1 + max(g.degrees))
        cases = [("P", phase, indicator)] + [
            (f"k={k}", phase.add(phase.conj()).scale(cmath.exp(2j * math.pi / k)),
             n * np.exp(2j * np.pi * (2 * w - e) / k))
            for k in (1, 2, 3, 8)]
        for label, f, want in cases:
            got = np.concatenate([vals for _, vals in _sweep(
                g, f, "conjugate", "auto", config.with_(cap_colourings=e),
                "closed-form sweep")])
            err = float(np.abs(got - want).max())
            worst = max(worst, err)
            if err > _REL_TOL * max(1, n):
                return {"ok": False, "graph": name, "kernel": label, "deviation": err}
        balanced[name] = n
    return {"ok": True, "balanced_colourings": balanced, "worst_error": worst}


def _expansion_instances():
    k12 = star(2)
    out = [(k12, EdgeColouring((1, 1))), (k12, EdgeColouring((0, 0))),
           (k12, EdgeColouring((1, 0)))]
    for g in (cycle(4), cycle(6)):
        out.extend((g, col) for col in iter_balanced_colourings(g))
    return out


def _row_second_order(config: RunConfig) -> dict:
    """The predicted quadratic matches direct evaluation with a cubically
    bounded residual; the centre-path inequality I1 + I2 >= 2*I3 holds."""
    rng = random.Random(0xE2)
    instances = _expansion_instances()
    fitted_by_instance: dict[str, float] = {}
    for _ in range(20):
        h = StepKernel([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(3)])
        for g, col in instances:
            key = f"{g.n_edges}-edges-{''.join(map(str, col.colours))}"
            exp = second_order_expansion(g, col, h)
            if exp.i1 + exp.i2 - 2 * exp.i3 < -1e-12:
                return {"ok": False, "reason": "centre-path inequality failed"}
            fitted = 0.0
            for eps in (0.125, -0.125, 0.0625, -0.0625):
                direct = t_density(g, col, perturbed_kernel(h, eps),
                                   "transpose", "auto", config).real
                resid = abs(direct - exp.predict(eps))
                bound = expansion_tail_bound(g, h, eps) + 1e-12
                if resid > bound:
                    return {
                        "ok": False, "eps": eps, "residual": resid,
                        "bound": bound, "edges": g.n_edges,
                    }
                fitted = max(fitted, resid / abs(eps) ** 3)
            fitted_by_instance[key] = max(fitted_by_instance.get(key, 0.0), fitted)
    return {"ok": True, "kernels": 20, "instances": len(instances),
            "fitted_cubic_constants": fitted_by_instance}


def _row_falsifier(config: RunConfig) -> dict:
    """No triangle/scaling violation on the alternating 4-cycle in 10^4
    trials; a witness on the monochromatic colouring within 10^3 trials;
    witnesses replay."""
    c4 = cycle(4)
    alt = EdgeColouring((1, 0, 1, 0))
    mono = EdgeColouring((1, 1, 1, 1))
    clean = triangle_falsifier(c4, alt, seed=1_234, trials=10_000, config=config)
    if clean.violated:
        return {"ok": False, "reason": "false positive on the alternating colouring",
                "witness": clean.witness.to_json()}
    hit = triangle_falsifier(c4, mono, seed=1_234, trials=1_000, config=config)
    ok = hit.violated and hit.trials <= 1_000 and hit.witness.replay(c4, config)
    return {
        "ok": ok,
        "alternating_trials": clean.trials,
        "monochromatic_witness": hit.witness.to_json() if hit.witness else None,
    }


def _row_decoration_inequality(config: RunConfig) -> dict:
    """Margin exactly zero on constant decorations, no violation in 10^4
    random decorations on the alternating colouring, and a recorded violation
    on the colouring with a single odd edge."""
    c4 = cycle(4)
    alt = EdgeColouring((1, 0, 1, 0))
    f = random_kernel(random.Random(77), 2, 2)
    eq = hatami_check(c4, alt, Decoration.uniform(f, 4), config=config)
    ok = eq.holds and eq.log_margin == 0.0
    scan = hatami_random_scan(c4, alt, seed=55, trials=10_000, config=config)
    ok &= not scan.violated
    witness = hatami_violation_search(c4, EdgeColouring((1, 1, 1, 0)), seed=55,
                                      trials=1_000, config=config)
    ok &= witness is not None and not witness.replay(c4, config).holds
    return {
        "ok": ok,
        "uniform_margin": eq.log_margin,
        "random_scan_worst_margin": scan.worst_margin,
        "violation": witness.to_json() if witness else None,
    }


def _row_subdivision_bridge(config: RunConfig) -> dict:
    """Tournament and balanced-colouring views of subdivided complete graphs
    are inverse to each other, and alternating 6-/8-cycle counts equal the
    directed 3-/4-cycle counts.  Balanced colourings correspond exactly to
    the regular tournaments (branch balance forces equal in/out degree):
    ``regular_tournaments`` lists them so, and a brute-force test over every
    labelled tournament checks it independently."""
    expected = {3: 2, 5: 24}
    counts = {}
    for n in (3, 5):
        g = subdivided_complete(n)
        total = 0
        for col in iter_balanced_colourings(g, config):
            total += 1
            t = tournament_from_colouring(g, col)
            if not t.is_regular():
                return {"ok": False, "n": n, "reason": "non-regular tournament"}
            g2, col2 = colouring_from_tournament(t)
            if col2.colours != col.colours or g2.edges != g.edges:
                return {"ok": False, "n": n, "colours": list(col.colours)}
            if kappa_alternating(g, col, 6, config) != count_directed_cycles(t, 3):
                return {"ok": False, "n": n, "reason": "6-cycle mismatch"}
            if n >= 5 and kappa_alternating(g, col, 8, config) != \
                    count_directed_cycles(t, 4):
                return {"ok": False, "n": n, "reason": "8-cycle mismatch"}
        counts[n] = total
        if total != expected[n]:
            return {"ok": False, "n": n,
                    "reason": f"expected {expected[n]} balanced colourings, got {total}"}
        # the reverse composition on every regular tournament
        for t in regular_tournaments(n):
            g2, col2 = colouring_from_tournament(t)
            if tournament_from_colouring(g2, col2).arcs != t.arcs:
                return {"ok": False, "n": n, "reason": "reverse round trip failed"}
    return {"ok": True, "balanced_colourings": counts}


ROWS: list[Row] = [
    Row("tournament-3cycles", "regular tournament 3-cycle formula", 60,
        _row_tournament_three_cycles),
    Row("tournament-4cycles", "clockwise vs quadratic-residue 4-cycles", 1,
        _row_tournament_four_cycles),
    Row("hypercube-identities", "Q4 profiles and balanced-scan identities", 600,
        _row_hypercube_identities),
    Row("certificates", "hypercube and 6-cycle certificates", 600,
        _row_certificates),
    Row("kneser-arithmetic", "integrality, case list, duality", 60,
        _row_kneser_arithmetic),
    Row("dual-path", "direct vs elimination density agreement", 120,
        _row_dual_path),
    Row("trig-closed-forms", "trigonometric closed forms by exact phase-grid sweeps", 120,
        _row_trig_closed_forms),
    Row("second-order", "quadratic expansion with cubic residual", 300,
        _row_second_order),
    Row("falsifier", "triangle/scaling falsifier soundness", 120,
        _row_falsifier),
    Row("decoration-inequality", "decoration inequality scans", 120,
        _row_decoration_inequality),
    Row("subdivision-bridge", "tournament/colouring round trip", 120,
        _row_subdivision_bridge),
]


def run_row(row: Row, config: RunConfig = DEFAULT) -> dict:
    start = time.perf_counter()
    try:
        result = row.run(config)
    except Exception as exc:  # a crashed row is a failed row, not a crashed table
        result = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - start
    result["elapsed_s"] = round(elapsed, 3)
    result["within_budget"] = elapsed <= row.budget_s
    result["ok"] = bool(result.get("ok")) and result["within_budget"]
    result["id"] = row.rid
    result["title"] = row.title
    return result


def run_all(config: RunConfig = DEFAULT, row_ids: list[str] | None = None) -> list[dict]:
    if row_ids is not None:
        known = [r.rid for r in ROWS]
        unknown = [rid for rid in row_ids if rid not in known]
        if unknown:
            raise InvalidParameter(f"unknown row id(s) {', '.join(unknown)}; "
                                   f"valid ids: {', '.join(known)}")
    return [run_row(r, config) for r in ROWS if row_ids is None or r.rid in row_ids]
