"""Obstruction pipeline producing machine-checkable "not norming" certificates.

A certificate names the obstruction and the rule behind it, carries a finite
witness (family rules may cite the paper instead), and logs which pipeline
stages ran, were skipped, or hit a cap.  The pipeline is sound but
deliberately incomplete: ``NoObstructionFound`` never claims the graph is
norming.

Stage order: star-exception classification, Eulerian degrees, biregularity,
edge-transitivity, balanced-colouring existence, arithmetic shortcuts for
named families, exhaustive transitive-colouring search, then the counting
laws (girth-cycle colour law, alternating-cycle maximality, four-cycle
pattern maximality) on the surviving colourings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import comb
from typing import Optional, Sequence

import numpy as np

from .arithmetic import (
    class_A_membership,
    kneser_admissible,
    kneser_integrality_test,
)
from .config import DEFAULT, RunConfig
from .cycles import (
    _class_counts,
    _pattern_scores,
    _profile,
    _scan_colourings,
    enumerate_cycles,
)
from .errors import (
    CapExceeded,
    DegenerateParameters,
    OutOfRange,
    OutOfScopeParameters,
    VerificationFailed,
)
from .graphs import (
    BipartiteGraph,
    EdgeColouring,
    girth,
    is_biregular,
    iter_balanced_colourings,
)
from .constructions import (
    Tournament,
    bipartite_kneser,
    clockwise_tournament,
    colouring_from_tournament,
    count_directed_cycles,
    hypercube,
    hypercube_alpha,
    hypercube_beta,
    quadratic_residue_tournament,
    set_inclusion_graph,
    subdivided_complete,
)
from . import symmetry

VERDICT_NOT_NORMING = "NotNorming"
VERDICT_NO_OBSTRUCTION = "NoObstructionFound"
VERDICT_SEMINORMING = "SeminormingException"


@dataclass
class Certificate:
    verdict: str
    obstruction: Optional[str] = None
    rule: Optional[str] = None
    witness: dict = field(default_factory=dict)
    side_swap: bool = True
    stages: list = field(default_factory=list)
    surviving: list = field(default_factory=list)
    family: Optional[dict] = None
    cap_hit: bool = False

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "obstruction": self.obstruction,
            "rule": self.rule,
            "witness": self.witness,
            "automorphism_mode": {"side_swap": self.side_swap},
            "stages": self.stages,
            "cap_hit": self.cap_hit,
        }
        if self.surviving:
            out["surviving_colourings"] = self.surviving
        if self.family:
            out["family"] = self.family
        return out


class _Stages:
    def __init__(self):
        self.log: list[dict] = []

    def ran(self, name: str, **detail):
        self.log.append({"stage": name, "status": "ran", **detail})

    def skipped(self, name: str, reason: str):
        self.log.append({"stage": name, "status": "skipped", "reason": reason})

    def capped(self, name: str, exc: CapExceeded):
        self.log.append({
            "stage": name, "status": "cap-exceeded",
            "needed": exc.needed, "cap": exc.cap,
        })


# -- star exceptions -----------------------------------------------------------


def _star_exception(g: BipartiteGraph) -> Optional[dict]:
    """Detects the seminorming exceptions: disjoint unions of single edges,
    or of isomorphic stars with an even number of leaves on one fixed side."""
    shapes = []
    for comp in g.components:
        verts = sorted(comp, key=g.vertex_index.get)
        n = len(verts)
        if n == 2:
            shapes.append(("edge", None, None))
            continue
        centres = [v for v in verts if g.degree(v) == n - 1]
        leaves = [v for v in verts if g.degree(v) == 1]
        if len(centres) == 1 and len(leaves) == n - 1:
            side = "left" if g.is_left(centres[0]) else "right"
            shapes.append(("star", n - 1, side))
        else:
            return None
    if all(s[0] == "edge" for s in shapes):
        return {"shape": "disjoint-single-edges", "copies": len(shapes)}
    if all(s[0] == "star" for s in shapes):
        leaf_counts = {s[1] for s in shapes}
        sides = {s[2] for s in shapes}
        if len(leaf_counts) == 1 and len(sides) == 1:
            leaves = leaf_counts.pop()
            if leaves % 2 == 0:
                return {
                    "shape": "disjoint-even-stars",
                    "copies": len(shapes),
                    "leaves": leaves,
                    "centre_side": sides.pop(),
                    "half_half_colouring": "colour any half of each star's edges 1",
                }
    return None


# -- counting stage -------------------------------------------------------------


@dataclass
class _CountingRefs:
    girth_cycles: np.ndarray        # one row of edge indices per cycle
    four_cycles: np.ndarray         # the same object when the girth is 4
    kappa_max: int
    pattern_max: Optional[int]     # None when there are no 4-cycles
    scan: str                       # "all-colourings" or "balanced-only"
    kappa_argmax: tuple[int, ...]
    pattern_argmax: Optional[tuple[int, ...]]


def _profiles(matrix: np.ndarray, girth_cycles, four_cycles) -> tuple:
    """(girth-cycle class counts, 4-cycle class counts) for each row of an
    int8 colourings matrix; one kernel pass when the girth is 4."""
    girth_counts = _class_counts(matrix, girth_cycles)
    if four_cycles is girth_cycles:
        return girth_counts, girth_counts
    return girth_counts, _class_counts(matrix, four_cycles)


def _counting_refs(
    g: BipartiteGraph,
    balanced: list[EdgeColouring],
    config: RunConfig,
) -> _CountingRefs:
    """Reference maxima for the counting laws.

    When the whole colouring space is small enough it is scanned; otherwise
    the maxima are taken over the balanced colourings, which still produces
    sound beat-witnesses (any scanned colouring that beats the candidate is
    itself the witness).
    """
    gv = int(girth(g))
    girth_cycles = np.array(enumerate_cycles(g, gv, config).edge_cycles, dtype=np.intp)
    four_cycles = (girth_cycles if gv == 4 else
                   np.array(enumerate_cycles(g, 4, config).edge_cycles, dtype=np.intp))

    def score(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        girth_counts, four_counts = _profiles(matrix, girth_cycles, four_cycles)
        return girth_counts[:, 0], _pattern_scores(four_counts)

    if g.n_edges <= min(config.cap_colourings, 16):
        scan = "all-colourings"
        (k_best, k_arg), (p_best, p_arg) = _scan_colourings(g.n_edges, score, config)
    else:
        # first strict maximum in enumeration order, in one matrix pass
        scan = "balanced-only"
        kv, pv = score(np.array([c.colours for c in balanced], dtype=np.int8))
        k, p = int(np.argmax(kv)), int(np.argmax(pv))
        k_best, k_arg = int(kv[k]), balanced[k].colours
        p_best, p_arg = int(pv[p]), balanced[p].colours
    if not len(four_cycles):
        p_best = p_arg = None
    return _CountingRefs(girth_cycles, four_cycles, k_best, p_best, scan, k_arg, p_arg)


def _counting_failures(colours: tuple[int, ...], refs: _CountingRefs) -> list[str]:
    row = np.array([colours], dtype=np.int8)
    girth_counts, four_counts = _profiles(row, refs.girth_cycles, refs.four_cycles)
    pattern = _pattern_scores(four_counts)[0]
    fails = []
    if girth_counts[0, 3]:
        fails.append("girth-cycle-law")
    if girth_counts[0, 0] < refs.kappa_max:
        fails.append("kappa")
    if refs.pattern_max is not None and pattern < refs.pattern_max:
        fails.append("pattern")
    return fails


# -- the generic pipeline ---------------------------------------------------------


def certify_not_norming(
    g: BipartiteGraph,
    family_hint: Optional[Sequence] = None,
    config: RunConfig = DEFAULT,
) -> Certificate:
    """Run the obstruction pipeline on one graph.

    ``family_hint`` may name ("kneser", n, r) or ("inclusion", n, k, r)
    parameters to unlock arithmetic shortcuts; the hint is used only after
    the graph is proved isomorphic to the hinted family's graph.
    """
    if g.n_edges == 0:
        raise OutOfRange("cannot certify an empty graph")
    stages = _Stages()
    side_swap = config.side_swap

    star = _star_exception(g)
    stages.ran("star-exception", matched=star is not None)
    if star is not None:
        return Certificate(
            VERDICT_SEMINORMING, obstruction="StarException",
            rule="star-seminorm-exception", witness=star,
            side_swap=side_swap, stages=stages.log,
        )

    odd = [v for v in g.vertices if g.degree(v) % 2]
    stages.ran("eulerian", odd_degree_vertices=len(odd))
    if odd:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"odd_degree_vertex": odd[0], "degree": g.degree(odd[0])},
            side_swap=side_swap, stages=stages.log,
        )

    if not is_biregular(g):
        ldeg = sorted({g.degree(v) for v in g.left})
        rdeg = sorted({g.degree(v) for v in g.right})
        stages.ran("biregular", ok=False)
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotBiregular",
            rule="biregularity",
            witness={"left_degrees": ldeg, "right_degrees": rdeg},
            side_swap=side_swap, stages=stages.log,
        )
    stages.ran("biregular", ok=True)

    autos = None
    try:
        report = symmetry.automorphisms(g, side_swap, config)
        stages.ran("edge-transitive", ok=report.edge_transitive,
                   group_order=report.group_order)
        if not report.edge_transitive:
            return Certificate(
                VERDICT_NOT_NORMING, obstruction="NotEdgeTransitive",
                rule="edge-transitivity",
                witness={"group_order": report.group_order},
                side_swap=side_swap, stages=stages.log,
            )
        autos = symmetry._all_automorphisms(g, side_swap, config)
    except CapExceeded as exc:
        stages.capped("edge-transitive", exc)

    balanced = None
    try:
        balanced = list(iter_balanced_colourings(g, config))
        stages.ran("balanced-colourings", count=len(balanced))
    except CapExceeded as exc:
        stages.capped("balanced-colourings", exc)
    if balanced is not None and not balanced:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotBalancedPossible",
            rule="balanced-colouring-existence",
            witness={"balanced_colourings": 0},
            side_swap=side_swap, stages=stages.log,
        )

    shortcut = _arithmetic_shortcut(g, family_hint, stages, config)
    if shortcut is not None:
        shortcut.side_swap = side_swap
        shortcut.stages = stages.log
        return shortcut

    if balanced is None:
        stages.skipped("transitive-colourings", "balanced enumeration capped")
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"note": "balanced enumeration capped"},
            side_swap=side_swap, stages=stages.log, cap_hit=True,
        )
    if autos is None:
        stages.skipped("transitive-colourings", "automorphism group capped")
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"note": "transitive-colouring search skipped"},
            side_swap=side_swap, stages=stages.log, cap_hit=True,
        )

    perms = symmetry._edge_table(g, autos)
    transitive = [c for c in balanced if symmetry._transitive_under(g, c, perms)]
    stages.ran("transitive-colourings", balanced=len(balanced),
               transitive=len(transitive))
    if not transitive:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="transitive-colouring-existence",
            witness={"mode": "exhaustive", "balanced_colourings": len(balanced),
                     "transitive_colourings": 0},
            side_swap=side_swap, stages=stages.log,
        )

    try:
        refs = _counting_refs(g, balanced, config)
    except CapExceeded as exc:
        stages.capped("counting-laws", exc)
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"note": "counting stage capped"},
            surviving=[list(c.colours) for c in transitive[:10]],
            side_swap=side_swap, stages=stages.log, cap_hit=True,
        )
    # one pass over every balanced colouring feeds the dichotomy summary and
    # keeps the failures of the transitive ones
    failures = {c.colours: None for c in transitive}
    balance_fail_kinds = {"girth-cycle-law": 0, "kappa": 0, "pattern": 0, "none": 0}
    for c in balanced:
        fails = _counting_failures(c.colours, refs)
        balance_fail_kinds[fails[0] if fails else "none"] += 1
        if c.colours in failures:
            failures[c.colours] = fails
    survivors = [c for c in transitive if not failures[c.colours]]
    transitive_failures = [(c, f) for c, f in failures.items() if f]
    stages.ran("counting-laws", scan=refs.scan, survivors=len(survivors),
               kappa_max=refs.kappa_max, pattern_max=refs.pattern_max)

    if survivors:
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"checked": ["girth-cycle-law", "kappa-maximality",
                                 "pattern-maximality", "transitivity"]},
            surviving=[list(c.colours) for c in survivors[:10]],
            side_swap=side_swap, stages=stages.log,
        )

    kinds = {k for _, fails in transitive_failures for k in fails}
    if kinds == {"girth-cycle-law"}:
        obstruction, rule = "GirthCycleLawViolated", "girth-cycle-colour-law"
    elif "kappa" in kinds:
        obstruction, rule = "KappaNotMaximal", "alternating-cycle-maximality"
    else:
        obstruction, rule = "FourCyclePatternSuboptimal", "four-cycle-pattern-maximality"
    witness = {
        "dichotomy": balance_fail_kinds,
        "scan": refs.scan,
        "kappa_max": refs.kappa_max,
        "kappa_argmax": list(refs.kappa_argmax),
        "transitive_failures": [
            {"colours": list(c), "fails": f} for c, f in transitive_failures[:10]
        ],
    }
    if refs.pattern_max is not None:
        witness["pattern_max"] = refs.pattern_max
        witness["pattern_argmax"] = list(refs.pattern_argmax)
    return Certificate(
        VERDICT_NOT_NORMING, obstruction=obstruction, rule=rule,
        witness=witness, side_swap=side_swap, stages=stages.log,
    )


def _arithmetic_shortcut(
    g: BipartiteGraph,
    family_hint: Optional[Sequence],
    stages: _Stages,
    config: RunConfig,
) -> Optional[Certificate]:
    """Class-membership and integrality shortcuts for hinted set-inclusion
    parameters.  The hint is only trusted once the graph is isomorphic to the
    named family's graph; when that check exceeds a cap the shortcut is
    skipped."""
    if not family_hint:
        return None
    hint = list(family_hint)
    kind = str(hint[0])
    try:
        if kind == "kneser":
            n, r = int(hint[1]), int(hint[2])
            k = n - r
        elif kind == "inclusion":
            n, k, r = int(hint[1]), int(hint[2]), int(hint[3])
        else:
            stages.skipped("arithmetic-shortcut", f"no shortcut for family {kind!r}")
            return None
        reference = set_inclusion_graph(n, k, r, config)
    except (IndexError, ValueError, DegenerateParameters) as exc:
        stages.skipped("arithmetic-shortcut", f"bad hint: {exc}")
        return None
    except CapExceeded:
        stages.skipped("arithmetic-shortcut", "hint reference too large to verify")
        return None

    if not _same_shape(g, reference):
        stages.skipped("arithmetic-shortcut", "graph does not match hinted family")
        return None
    try:
        same_graph = symmetry.isomorphic(g, reference, True, config)
    except CapExceeded:
        stages.skipped("arithmetic-shortcut", "hint reference too large to verify")
        return None
    if not same_graph:
        stages.skipped("arithmetic-shortcut", "graph not isomorphic to hinted family")
        return None

    detail = {"n": n, "k": k, "r": r}
    if k == n - r:
        try:
            res = kneser_integrality_test(n, r)
            detail["integrality"] = res.to_json()
            if not res.is_integer:
                stages.ran("arithmetic-shortcut", **detail)
                return Certificate(
                    VERDICT_NOT_NORMING, obstruction="IntegralityFailure",
                    rule="kneser-integrality", witness=detail,
                )
        except OutOfScopeParameters:
            pass
        try:
            adm = kneser_admissible(n, r)
            detail["published_case_list"] = {
                "admissible": bool(adm), "case": adm.case,
            }
        except DegenerateParameters:
            pass
    for pair in ((k, r), (n - r, n - k)):
        kk, rr = pair
        if not (kk > rr >= 1):
            continue
        res = class_A_membership(kk, rr)
        detail[f"class_membership_{kk}_{rr}"] = bool(res)
        if not res:
            stages.ran("arithmetic-shortcut", **detail)
            return Certificate(
                VERDICT_NOT_NORMING, obstruction="ClassAViolation",
                rule="hypergraph-class-duality",
                witness={**detail, "failing_pair": [kk, rr]},
            )
    stages.ran("arithmetic-shortcut", **detail)
    return None


def _same_shape(g1: BipartiteGraph, g2: BipartiteGraph) -> bool:
    def shape(g):
        return (
            sorted((len(g.left), len(g.right))),
            g.n_edges,
            sorted(sorted(g.degree(v) for v in side) for side in (g.left, g.right)),
        )
    return shape(g1) == shape(g2)


# -- family certificates ------------------------------------------------------------


def certify_family(family: str, params: Sequence[int], config: RunConfig = DEFAULT) -> Certificate:
    """Certificate for a named family member, using the family-level facts
    plus an independently verified desk-scale witness where feasible."""
    family = family.replace("_", "-")
    if family == "hypercube":
        return _certify_hypercube(int(params[0]), config)
    if family == "kneser":
        return _certify_kneser(int(params[0]), int(params[1]), config)
    if family == "inclusion":
        return _certify_inclusion(int(params[0]), int(params[1]), int(params[2]), config)
    if family == "subdivided-complete":
        return _certify_subdivision(int(params[0]), config)
    raise OutOfRange(f"unknown family {family!r}")


def _certify_hypercube(d: int, config: RunConfig) -> Certificate:
    if d < 1:
        raise OutOfRange("hypercube dimension must be >= 1")
    fam = {"family": "hypercube", "d": d}
    if d <= 2 or d == 4:
        # small enough to run the whole pipeline directly
        cert = certify_not_norming(hypercube(d, config), None, config)
        cert.family = fam
        if d == 4:
            cert.rule = cert.rule or "hypercube-family"
            profiles = _hypercube_profiles(4, config)
            cert.witness["alpha_profile"] = profiles["alpha"]
            cert.witness["beta_profile"] = profiles["beta"]
        return cert
    if d % 2 == 1:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"degree": d, "note": "odd-regular"}, family=fam,
        )
    witness: dict = {"identities": {
        "four_cycles": comb(d, 2) * (1 << (d - 2)),
        "kappa_identity": f"c1 = c2 + {d // 2} * 2^{d - 2} for balanced colourings without three-one 4-cycles",
        "pattern_identity": "c1 + c3 - c2 decreases exactly by 2*c2 from its maximum",
    }}
    if d <= 8:
        profiles = _hypercube_profiles(d, config)
        witness.update(profiles)
        if not (profiles["alpha"]["c2"] > 0 and profiles["beta"]["c2"] == 0):
            raise VerificationFailed("hypercube profile witness failed")
    else:
        witness["note"] = "profiles omitted above dimension 8"
    return Certificate(
        VERDICT_NOT_NORMING, obstruction="KappaNotMaximal",
        rule="hypercube-family", witness=witness, family=fam,
    )


def _hypercube_profiles(d: int, config: RunConfig) -> dict:
    g = hypercube(d, config)
    cycles = enumerate_cycles(g, 4, config.with_(cap_cycles=10 ** 6)).edge_cycles
    out = {}
    for name, colouring in (("alpha", hypercube_alpha(d, config)),
                            ("beta", hypercube_beta(d, config))):
        out[name] = _profile(colouring.colours, cycles).to_json()
    return out


def _certify_kneser(n: int, r: int, config: RunConfig) -> Certificate:
    if not (r >= 1 and n - r > r):
        raise OutOfRange(f"need n - r > r >= 1, got ({n}, {r})")
    fam = {"family": "kneser", "n": n, "r": r}
    k = n - r
    if (n, r) == (3, 1):
        cert = certify_not_norming(bipartite_kneser(3, 1), None, config)
        cert.family = fam
        return cert

    degree = comb(n - r, r)
    if degree % 2 == 1:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"regular_degree": degree}, family=fam,
        )

    try:
        res = kneser_integrality_test(n, r)
        if not res.is_integer:
            return Certificate(
                VERDICT_NOT_NORMING, obstruction="IntegralityFailure",
                rule="kneser-integrality", witness=res.to_json(), family=fam,
            )
    except OutOfScopeParameters:
        pass

    membership = class_A_membership(k, r)
    if not membership:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="ClassAViolation",
            rule="hypergraph-class-duality",
            witness={"failing_pair": [k, r]}, family=fam,
        )

    adm = kneser_admissible(n, r)
    extra = {"published_case_list": {"admissible": bool(adm), "case": adm.case}}
    if r == 1:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="KneserInadmissible",
            rule="kneser-r1-family",
            witness={"n": n, "note": "complete bipartite minus a matching, n > 3",
                     **extra},
            family=fam,
        )
    if r == 2 and k >= 5 and k % 2 == 1:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="KneserInadmissible",
            rule="inclusion-r2-family",
            witness={"k": k, **extra}, family=fam,
        )
    if r == 3 and k >= 4 and k % 2 == 0:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="KneserInadmissible",
            rule="inclusion-r3-even-family",
            witness={"k": k, **extra}, family=fam,
        )
    if r == 3 and k == 5 and n >= 7:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="KneserInadmissible",
            rule="inclusion-53-family",
            witness={"k": k, **extra}, family=fam,
        )
    return Certificate(
        VERDICT_NOT_NORMING, obstruction="KneserInadmissible",
        rule="kneser-family",
        witness={"note": "no bipartite Kneser graph other than (3, 1) is norming",
                 **extra},
        family=fam,
    )


def _certify_inclusion(n: int, k: int, r: int, config: RunConfig) -> Certificate:
    if not (n > k > r > 0):
        raise OutOfRange(f"need n > k > r > 0, got ({n}, {k}, {r})")
    fam = {"family": "inclusion", "n": n, "k": k, "r": r}
    if k == n - r:
        cert = _certify_kneser(n, r, config)
        cert.family = fam
        return cert
    if (k, r) == (2, 1) or (k, r) == (n - 1, n - 2):
        cert = _certify_subdivision(n, config)
        cert.family = fam
        return cert

    ldeg, rdeg = comb(k, r), comb(n - r, k - r)
    if ldeg % 2 or rdeg % 2:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"left_degree": ldeg, "right_degree": rdeg}, family=fam,
        )

    if r == 1 and k >= 4:
        witness: dict = {"note": "diameter-2 inclusion graphs have 4-cycle-generated "
                                 "cycle spaces, forcing potential-form colourings"}
        try:
            graph = set_inclusion_graph(n, k, r, config)
            from .cycles import four_cycles_generate_cycle_space
            witness["four_cycles_generate_cycle_space"] = \
                four_cycles_generate_cycle_space(graph, config)
        except CapExceeded:
            witness["four_cycles_generate_cycle_space"] = "not verified (cap)"
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="inclusion-r1-family", witness=witness, family=fam,
        )

    for pair in ((k, r), (n - r, n - k)):
        kk, rr = pair
        if kk > rr >= 1 and not class_A_membership(kk, rr):
            return Certificate(
                VERDICT_NOT_NORMING, obstruction="ClassAViolation",
                rule="hypergraph-class-duality",
                witness={"failing_pair": [kk, rr]}, family=fam,
            )
    if r == 2 and k >= 5 and k % 2 == 1:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="inclusion-r2-family", witness={"k": k}, family=fam,
        )
    if r == 3 and k >= 4 and k % 2 == 0:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="inclusion-r3-even-family", witness={"k": k}, family=fam,
        )
    if r == 3 and k == 5 and n >= 7:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="inclusion-53-family", witness={"k": k}, family=fam,
        )
    # fall back to the generic pipeline when the graph is small enough
    try:
        graph = set_inclusion_graph(n, k, r, config)
        cert = certify_not_norming(graph, ("inclusion", n, k, r), config)
        cert.family = fam
        return cert
    except CapExceeded as exc:
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"note": f"no family fact applies and the graph is too large: {exc}"},
            family=fam, cap_hit=True,
        )


def tournament_is_arc_transitive(t: Tournament, config: RunConfig = DEFAULT) -> bool:
    """Is the automorphism group of ``t`` transitive on its arcs?

    Aut(t) is the colour-preserving, side-preserving automorphism group of
    ``colouring_from_tournament(t)``, which the coloured search of
    ``symmetry._iso_maps`` finds, and the arcs are its colour-1 edges (tail
    to subdivision vertex).  The vertex cap applies to the subdivided K_n,
    which has n + n(n-1)/2 vertices.
    """
    g, a = colouring_from_tournament(t)
    if g.n_vertices > config.cap_vertices:
        raise CapExceeded("arc-transitivity check", g.n_vertices, config.cap_vertices)
    autos = [symmetry.Automorphism(p) for p in symmetry._iso_maps(g, g, False, (a, a))]
    return _arc_transitive(symmetry._edge_table(g, autos), a)


def _arc_transitive(table: np.ndarray, a: EdgeColouring) -> bool:
    """The colour-1 half of ``symmetry._transitive_under``: do the
    colour-preserving rows of a group's edge table act transitively on the
    colour-1 edges (the arcs, for a colouring from a tournament)?"""
    preserving, _ = symmetry._colour_action(table, a.colours)
    return symmetry._class_transitive(table, preserving, a.colours, 1)


def _certify_subdivision(n: int, config: RunConfig) -> Certificate:
    if n < 2:
        raise OutOfRange("need n >= 2")
    fam = {"family": "subdivided-complete", "n": n}
    if n <= 3:
        cert = certify_not_norming(subdivided_complete(n), None, config)
        cert.family = fam
        return cert
    if n % 2 == 0:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"branch_degree": n - 1}, family=fam,
        )
    d = (n - 1) // 2
    if n % 4 == 1:
        # arc-transitivity would force each arc into (d+1)/2 directed
        # 3-cycles, impossible for even d
        four_if_at = Fraction(3 * n * comb(d + 1, 3), 4)
        witness = {
            "three_cycles": n * d * (d + 1) // 6,
            "per_arc": [Fraction(d + 1, 2).numerator, Fraction(d + 1, 2).denominator],
            "four_cycles_if_arc_transitive": [four_if_at.numerator,
                                              four_if_at.denominator],
            "mode": "arithmetic",
        }
        if n == 5:
            # every tournament's automorphism group is the colour-preserving
            # part of one group: the side-preserving group of subdivided K5
            g = subdivided_complete(5)
            table = symmetry._edge_table(g, symmetry._all_automorphisms(g, False, config))
            found = 0
            scanned = 0
            pair_list = [(i, j) for i in range(5) for j in range(i + 1, 5)]
            for bits in product((0, 1), repeat=len(pair_list)):
                arcs = [(i, j) if b else (j, i) for (i, j), b in zip(pair_list, bits)]
                scanned += 1
                _, a = colouring_from_tournament(Tournament(5, tuple(arcs)))
                if _arc_transitive(table, a):
                    found += 1
            witness["tournaments_scanned"] = scanned
            witness["arc_transitive_found"] = found
            if found:
                raise VerificationFailed("unexpected arc-transitive tournament on 5 vertices")
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="arc-transitive-three-cycles", witness=witness, family=fam,
        )
    # n = 3 (mod 4): arc-transitive tournaments exist; compare directed
    # 4-cycle counts against the clockwise tournament
    arc_transitive_k4 = Fraction(3 * n * comb(d + 1, 3), 4)
    clockwise_k4 = n * comb(d + 1, 3)
    witness = {
        "alternating_8cycles_transitive": [arc_transitive_k4.numerator,
                                           arc_transitive_k4.denominator],
        "alternating_8cycles_clockwise": clockwise_k4,
        "strict": arc_transitive_k4 < clockwise_k4,
    }
    if n == 7:
        witness["enumerated_quadratic_residue"] = count_directed_cycles(
            quadratic_residue_tournament(7), 4, config)
        witness["enumerated_clockwise"] = count_directed_cycles(
            clockwise_tournament(7), 4, config)
        if witness["enumerated_quadratic_residue"] != 21 or \
                witness["enumerated_clockwise"] != 28:
            raise VerificationFailed("tournament cycle-count witness failed")
    if not witness["strict"]:
        raise VerificationFailed("expected a strict 4-cycle comparison")
    return Certificate(
        VERDICT_NOT_NORMING, obstruction="KappaNotMaximal",
        rule="arc-transitive-four-cycles", witness=witness, family=fam,
    )
