"""Obstruction pipeline producing machine-checkable "not norming" certificates.

A certificate names the obstruction and the rule behind it, carries a finite
witness (family rules may cite the paper instead), and logs which pipeline
stages ran, were skipped, or hit a cap.  The pipeline is sound but
deliberately incomplete: ``NoObstructionFound`` never claims the graph is
norming.

Stage order: star-exception classification, Eulerian degrees, biregularity,
edge-transitivity, balanced-colouring enumeration, arithmetic shortcuts for
named families, exhaustive transitive-colouring search, then the counting
laws (girth-cycle colour law, alternating-cycle maximality, four-cycle
pattern maximality) on the surviving colourings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional, Sequence

import numpy as np

from .arithmetic import (
    _class_a_case,
    class_A_membership,
    kneser_integrality_test,
)
from .config import DEFAULT, RunConfig
from .cycles import (
    _class_counts,
    _pattern_scores,
    _profile,
    enumerate_cycles,
    four_cycles_generate_cycle_space,
)
from .errors import (
    CapExceeded,
    InvalidParameter,
    OutOfScopeParameters,
    VerificationFailed,
)
from .graphs import (
    BipartiteGraph,
    _balanced_rows,
    girth,
    is_biregular,
)
from .constructions import (
    bipartite_kneser,
    clockwise_tournament,
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
    deg = g.degrees
    for comp in g.components:
        n = len(comp)
        if n == 2:
            shapes.append(("edge", None, None))
            continue
        # the witness reads counts and the one centre's side: any order will do
        centres = [x for x in comp if deg[x] == n - 1]
        leaves = sum(deg[x] == 1 for x in comp)
        if len(centres) == 1 and leaves == n - 1:
            side = "left" if centres[0] < len(g.left) else "right"
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
    kappa_max: int
    pattern_max: Optional[int]     # None when there are no 4-cycles
    kappa_argmax: tuple[int, ...]
    pattern_argmax: Optional[tuple[int, ...]]


def _profiles(matrix: np.ndarray, girth_cycles, four_cycles) -> tuple:
    """(girth-cycle class counts, 4-cycle class counts) for each row of a
    0/1 colourings matrix; one kernel pass when the girth is 4."""
    girth_counts = _class_counts(matrix, girth_cycles)
    if four_cycles is girth_cycles:
        return girth_counts, girth_counts
    return girth_counts, _class_counts(matrix, four_cycles)


def _counting_refs(
    g: BipartiteGraph,
    balanced: np.ndarray,
    config: RunConfig,
) -> tuple[_CountingRefs, tuple]:
    """Reference maxima for the counting laws over the balanced colourings,
    the rows of the matrix ``balanced``, and the ``_profiles`` of those rows
    they are taken from, which ``_counting_failures`` reads again.

    Each maximum's argmax is its first strict maximum in enumeration order,
    from one profile pass.  Any balanced colouring that beats a candidate is
    itself the witness, so the laws stay sound without a scan of all 2^e
    colourings.
    """
    gv = int(girth(g))
    girth_cycles = enumerate_cycles(g, gv, config)
    four_cycles = girth_cycles if gv == 4 else enumerate_cycles(g, 4, config)
    profiles = girth_counts, four_counts = _profiles(balanced, girth_cycles, four_cycles)
    kv, pv = girth_counts[:, 0], _pattern_scores(four_counts)
    k, p = int(np.argmax(kv)), int(np.argmax(pv))
    k_best, k_arg = int(kv[k]), tuple(balanced[k].tolist())
    p_best, p_arg = int(pv[p]), tuple(balanced[p].tolist())
    if not len(four_cycles):
        p_best = p_arg = None
    return _CountingRefs(k_best, p_best, k_arg, p_arg), profiles


_LAWS = ("girth-cycle-law", "kappa", "pattern")


def _counting_failures(profiles: tuple, refs: _CountingRefs) -> np.ndarray:
    """``(rows x 3)`` bool: the counting laws (``_LAWS``) that each row of a
    0/1 colourings matrix fails, from the matrix's ``_profiles`` against the
    maxima of ``refs``."""
    girth_counts, four_counts = profiles
    pattern = (np.zeros(len(girth_counts), dtype=bool) if refs.pattern_max is None
               else _pattern_scores(four_counts) < refs.pattern_max)
    return np.column_stack((girth_counts[:, 3] > 0,
                            girth_counts[:, 0] < refs.kappa_max, pattern))


# -- the generic pipeline ---------------------------------------------------------


def certify_not_norming(
    g: BipartiteGraph,
    family_hint: Optional[Sequence] = None,
    config: RunConfig = DEFAULT,
) -> Certificate:
    """Run the obstruction pipeline on one graph.

    ``family_hint`` may name ("kneser", n, r) or ("inclusion", n, k, r)
    parameters to unlock arithmetic shortcuts; the hint is used only after
    the graph is proved isomorphic to the hinted family's graph.  A hint
    with an unknown family, the wrong number of fields or a field that is
    not an integer raises ``InvalidParameter`` before any stage runs.
    """
    if g.n_edges == 0:
        raise InvalidParameter("cannot certify an empty graph")
    hint = _hint_parameters(family_hint)
    stages = _Stages()
    cert = _pipeline(g, hint, stages, config)
    cert.side_swap, cert.stages = config.side_swap, stages.log
    return cert


# the hint families and the fields each takes after its name
_HINT_FIELDS = {"kneser": "n r", "inclusion": "n k r"}


def _hint_parameters(family_hint: Optional[Sequence]) -> Optional[tuple[int, int, int]]:
    """The (n, k, r) of the set-inclusion graph I(n, k, r) that a hint names
    (H(n, r) is I(n, n - r, r)), or None without a hint."""
    if not family_hint:
        return None
    family, *fields = family_hint
    names = _HINT_FIELDS.get(family)
    if names is None:
        raise InvalidParameter(f"unknown hint family {family!r}; "
                               f"hints name one of {', '.join(_HINT_FIELDS)}")
    values = _integer_fields(f"hint family {family!r}", names, fields)
    if family == "kneser":
        n, r = values
        return n, n - r, r
    return tuple(values)


def _integer_fields(what: str, names: str, fields: Sequence) -> list[int]:
    """The fields of a family or a hint as integers: exactly one for each of
    the space-separated ``names``, each an integer or its decimal text."""
    count = len(names.split())
    if len(fields) != count:
        raise InvalidParameter(f"{what} takes {count} parameter(s) ({names}), got {len(fields)}")
    try:
        # through str, so that 2.5 is refused rather than read as 2
        return [int(str(x)) for x in fields]
    except ValueError:
        raise InvalidParameter(f"{what} takes integer parameters, got {list(fields)}") from None


def _pipeline(
    g: BipartiteGraph,
    hint: Optional[tuple[int, int, int]],
    stages: _Stages,
    config: RunConfig,
) -> Certificate:
    """The stages of ``certify_not_norming``, logged to ``stages``.  The
    caller stamps the automorphism mode and the log on the certificate."""
    star = _star_exception(g)
    stages.ran("star-exception", matched=star is not None)
    if star is not None:
        return Certificate(
            VERDICT_SEMINORMING, obstruction="StarException",
            rule="star-seminorm-exception", witness=star,
        )

    deg, nl = g.degrees, len(g.left)
    odd = [x for x, d in enumerate(deg) if d % 2]
    stages.ran("eulerian", odd_degree_vertices=len(odd))
    if odd:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"odd_degree_vertex": g.vertices[odd[0]], "degree": deg[odd[0]]},
        )

    if not is_biregular(g):
        ldeg = sorted(set(deg[:nl]))
        rdeg = sorted(set(deg[nl:]))
        stages.ran("biregular", ok=False)
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotBiregular",
            rule="biregularity",
            witness={"left_degrees": ldeg, "right_degrees": rdeg},
        )
    stages.ran("biregular", ok=True)

    report = None
    try:
        report = symmetry.automorphisms(g, config)
        stages.ran("edge-transitive", ok=report.edge_transitive,
                   group_order=report.group_order)
        if not report.edge_transitive:
            return Certificate(
                VERDICT_NOT_NORMING, obstruction="NotEdgeTransitive",
                rule="edge-transitivity",
                witness={"group_order": report.group_order},
            )
    except CapExceeded as exc:
        stages.capped("edge-transitive", exc)

    matrix = None
    try:
        matrix = _balanced_rows(g, config)
        stages.ran("balanced-colourings", count=len(matrix))
    except CapExceeded as exc:
        stages.capped("balanced-colourings", exc)
    if matrix is not None and not len(matrix):
        # every degree is even here, so each component has an Euler circuit
        # of even length, and colouring it 1, 0, 1, 0, ... is balanced
        raise VerificationFailed("no balanced colouring of a graph with even degrees")

    shortcut = _arithmetic_shortcut(g, hint, stages, config)
    if shortcut is not None:
        return shortcut

    if matrix is None:
        stages.skipped("transitive-colourings", "balanced enumeration capped")
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"note": "balanced enumeration capped"}, cap_hit=True,
        )
    if report is None:
        stages.skipped("transitive-colourings", "automorphism group capped")
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"note": "transitive-colouring search skipped"}, cap_hit=True,
        )

    # the group is searched again only here, where the filter reads it whole;
    # a shortcut or a cap above ends the run after one search.  The balanced
    # colourings are closed under the group and conjugation, so the filter
    # checks one colouring per orbit and the counting stage reuses the matrix
    keep = symmetry._orbit_mask(g, matrix, config)[0]
    transitive = matrix[keep]
    stages.ran("transitive-colourings", balanced=len(matrix),
               transitive=len(transitive))
    if not len(transitive):
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="transitive-colouring-existence",
            witness={"mode": "exhaustive", "balanced_colourings": len(matrix),
                     "transitive_colourings": 0},
        )

    try:
        refs, profiles = _counting_refs(g, matrix, config)
    except CapExceeded as exc:
        stages.capped("counting-laws", exc)
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"note": "counting stage capped"},
            surviving=transitive[:10].tolist(), cap_hit=True,
        )
    # the profile pass over every balanced colouring that gave the maxima
    # feeds the dichotomy summary, which files each colouring under its first
    # failed law, and the failures of the transitive ones
    fails = _counting_failures(profiles, refs)
    first = np.where(fails.any(axis=1), fails.argmax(axis=1), len(_LAWS))
    balance_fail_kinds = dict(zip((*_LAWS, "none"),
                                  np.bincount(first, minlength=len(_LAWS) + 1).tolist()))
    fails = fails[keep]
    failed = fails.any(axis=1)
    survivors = transitive[~failed]
    stages.ran("counting-laws", survivors=len(survivors),
               kappa_max=refs.kappa_max, pattern_max=refs.pattern_max)

    if len(survivors):
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"checked": ["girth-cycle-law", "kappa-maximality",
                                 "pattern-maximality", "transitivity"]},
            surviving=survivors[:10].tolist(),
        )

    kinds = {law for law, hit in zip(_LAWS, fails.any(axis=0)) if hit}
    if kinds == {"girth-cycle-law"}:
        obstruction, rule = "GirthCycleLawViolated", "girth-cycle-colour-law"
    elif "kappa" in kinds:
        obstruction, rule = "KappaNotMaximal", "alternating-cycle-maximality"
    else:
        obstruction, rule = "FourCyclePatternSuboptimal", "four-cycle-pattern-maximality"
    witness = {
        "dichotomy": balance_fail_kinds,
        "kappa_max": refs.kappa_max,
        "kappa_argmax": list(refs.kappa_argmax),
        "transitive_failures": [
            {"colours": c, "fails": [law for law, hit in zip(_LAWS, row) if hit]}
            for c, row in zip(transitive[:10].tolist(), fails[:10].tolist())
        ],
    }
    if refs.pattern_max is not None:
        witness["pattern_max"] = refs.pattern_max
        witness["pattern_argmax"] = list(refs.pattern_argmax)
    return Certificate(
        VERDICT_NOT_NORMING, obstruction=obstruction, rule=rule, witness=witness,
    )


def _class_a_violation(n: int, k: int, r: int, checked: dict) -> Optional[Certificate]:
    """The ``hypergraph-class-duality`` certificate for I(n, k, r), or None.

    A transitive colouring needs (k, r) and its dual (n - r, n - k), one pair
    when k = n - r, in class A: the published clause list of
    ``class_A_membership``, cited rather than computed.  ``checked`` records
    each pair, up to the first that fails, as ``class_membership_<k>_<r>``.
    """
    for kk, rr in dict.fromkeys(((k, r), (n - r, n - k))):
        member = checked[f"class_membership_{kk}_{rr}"] = class_A_membership(kk, rr)
        if not member:
            return Certificate(
                VERDICT_NOT_NORMING, obstruction="ClassAViolation",
                rule="hypergraph-class-duality", witness={"failing_pair": [kk, rr]},
            )
    return None


def _inclusion_family_rule(n: int, k: int, r: int) -> Optional[str]:
    """The paper's family rule that rules out a transitive colouring of
    I(n, k, r) (cited, not computed), or None."""
    if r == 2 and k >= 5 and k % 2 == 1:
        return "inclusion-r2-family"
    if r == 3 and k >= 4 and k % 2 == 0:
        return "inclusion-r3-even-family"
    if r == 3 and k == 5 and n >= 7:
        return "inclusion-53-family"
    return None


def _arithmetic_shortcut(
    g: BipartiteGraph,
    hint: Optional[tuple[int, int, int]],
    stages: _Stages,
    config: RunConfig,
) -> Optional[Certificate]:
    """Class-membership and integrality shortcuts for the hinted set-inclusion
    parameters (n, k, r).  The hint is only trusted once
    ``symmetry.isomorphic``, its one gate, proves the graph isomorphic to
    I(n, k, r); when that search exceeds a cap the shortcut is skipped."""
    if hint is None:
        return None
    n, k, r = hint
    try:
        reference = set_inclusion_graph(n, k, r)
        same_graph = symmetry.isomorphic(g, reference, config.with_(side_swap=True))
    except InvalidParameter as exc:
        stages.skipped("arithmetic-shortcut", f"bad hint: {exc}")
        return None
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
        case = _class_a_case(k, r)
        detail["published_case_list"] = {"admissible": case is not None, "case": case}
    cert = _class_a_violation(n, k, r, detail)
    stages.ran("arithmetic-shortcut", **detail)
    if cert:
        cert.witness = {**detail, **cert.witness}
    return cert


# -- family certificates ------------------------------------------------------------


def certify_family(family: str, params: Sequence[int | str], config: RunConfig = DEFAULT) -> Certificate:
    """Certificate for a named family member, using the family-level facts
    plus an independently verified desk-scale witness where feasible.  The
    certificate records the configured automorphism mode and, in ``family``,
    the parameters under the names the family takes."""
    family = family.replace("_", "-")
    certifiers = {
        "hypercube": (_certify_hypercube, "d"),
        "kneser": (_certify_kneser, "n r"),
        "inclusion": (_certify_inclusion, "n k r"),
        "subdivided-complete": (_certify_subdivision, "n"),
    }
    if family not in certifiers:
        raise InvalidParameter(f"unknown family {family!r}")
    certify, names = certifiers[family]
    params = _integer_fields(f"family {family!r}", names, params)
    cert = certify(*params, config)
    cert.side_swap = config.side_swap
    cert.family = {"family": family, **dict(zip(names.split(), params))}
    return cert


def _certify_hypercube(d: int, config: RunConfig) -> Certificate:
    if d < 1:
        raise InvalidParameter("hypercube dimension must be >= 1")
    if d <= 2 or d == 4:
        # small enough to run the whole pipeline directly
        cert = certify_not_norming(hypercube(d), None, config)
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
            witness={"degree": d, "note": "odd-regular"},
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
        rule="hypercube-family", witness=witness,
    )


def _hypercube_profiles(d: int, config: RunConfig) -> dict:
    cycles = enumerate_cycles(hypercube(d), 4, config)
    out = {}
    for name, colouring in (("alpha", hypercube_alpha(d)), ("beta", hypercube_beta(d))):
        out[name] = _profile(colouring.colours, cycles).to_json()
    return out


def _certify_kneser(n: int, r: int, config: RunConfig) -> Certificate:
    if not (r >= 1 and n - r > r):
        raise InvalidParameter(f"need n - r > r >= 1, got ({n}, {r})")
    k = n - r
    if (n, r) == (3, 1):
        return certify_not_norming(bipartite_kneser(3, 1), None, config)

    degree = comb(n - r, r)
    if degree % 2 == 1:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"regular_degree": degree},
        )

    try:
        res = kneser_integrality_test(n, r)
        if not res.is_integer:
            return Certificate(
                VERDICT_NOT_NORMING, obstruction="IntegralityFailure",
                rule="kneser-integrality", witness=res.to_json(),
            )
    except OutOfScopeParameters:
        pass

    cert = _class_a_violation(n, k, r, {})
    if cert:
        return cert

    case = _class_a_case(k, r)
    extra = {"published_case_list": {"admissible": case is not None, "case": case}}
    if r == 1:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="KneserInadmissible",
            rule="kneser-r1-family",
            witness={"n": n, "note": "complete bipartite minus a matching, n > 3",
                     **extra},
        )
    rule = _inclusion_family_rule(n, k, r)
    if rule:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="KneserInadmissible",
            rule=rule, witness={"k": k, **extra},
        )
    return Certificate(
        VERDICT_NOT_NORMING, obstruction="KneserInadmissible",
        rule="kneser-family",
        witness={"note": "no bipartite Kneser graph other than (3, 1) is norming",
                 **extra},
    )


def _certify_inclusion(n: int, k: int, r: int, config: RunConfig) -> Certificate:
    if not (n > k > r > 0):
        raise InvalidParameter(f"need n > k > r > 0, got ({n}, {k}, {r})")
    if k == n - r:
        return _certify_kneser(n, r, config)
    if (k, r) == (2, 1) or (k, r) == (n - 1, n - 2):
        return _certify_subdivision(n, config)

    ldeg, rdeg = comb(k, r), comb(n - r, k - r)
    if ldeg % 2 or rdeg % 2:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"left_degree": ldeg, "right_degree": rdeg},
        )

    if r == 1 and k >= 4:
        witness: dict = {"note": "diameter-2 inclusion graphs have 4-cycle-generated "
                                 "cycle spaces, forcing potential-form colourings"}
        try:
            graph = set_inclusion_graph(n, k, r)
            witness["four_cycles_generate_cycle_space"] = \
                four_cycles_generate_cycle_space(graph, config)
        except CapExceeded:
            witness["four_cycles_generate_cycle_space"] = "not verified (cap)"
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="inclusion-r1-family", witness=witness,
        )

    cert = _class_a_violation(n, k, r, {})
    if cert:
        return cert
    rule = _inclusion_family_rule(n, k, r)
    if rule:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule=rule, witness={"k": k},
        )
    # fall back to the generic pipeline when the graph is small enough
    try:
        graph = set_inclusion_graph(n, k, r)
        return certify_not_norming(graph, None, config)
    except CapExceeded as exc:
        return Certificate(
            VERDICT_NO_OBSTRUCTION,
            witness={"note": f"no family fact applies and the graph is too large: {exc}"},
            cap_hit=True,
        )


def _certify_subdivision(n: int, config: RunConfig) -> Certificate:
    if n < 2:
        raise InvalidParameter("need n >= 2")
    if n <= 3:
        return certify_not_norming(subdivided_complete(n), None, config)
    if n % 2 == 0:
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NotEulerian",
            rule="eulerian-degrees",
            witness={"branch_degree": n - 1},
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
            # a transitive colouring's colour-1 class is one orbit of its
            # colour-preserving maps, so its tournament would be arc-transitive:
            # the transitive filter over the balanced colourings (the regular
            # tournaments, ``constructions``) checks that none exists
            g = subdivided_complete(5)
            rows = _balanced_rows(g, config.with_(cap_edges=g.n_edges))
            found = int(symmetry._orbit_mask(g, rows, config)[0].sum())
            witness["balanced_colourings"] = len(rows)
            witness["transitive_colourings"] = found
            if found:
                raise VerificationFailed("unexpected transitive colouring of subdivided K5")
        return Certificate(
            VERDICT_NOT_NORMING, obstruction="NoTransitiveColouring",
            rule="arc-transitive-three-cycles", witness=witness,
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
            quadratic_residue_tournament(7), 4)
        witness["enumerated_clockwise"] = count_directed_cycles(clockwise_tournament(7), 4)
        if witness["enumerated_quadratic_residue"] != 21 or \
                witness["enumerated_clockwise"] != 28:
            raise VerificationFailed("tournament cycle-count witness failed")
    if not witness["strict"]:
        raise VerificationFailed("expected a strict 4-cycle comparison")
    return Certificate(
        VERDICT_NOT_NORMING, obstruction="KappaNotMaximal",
        rule="arc-transitive-four-cycles", witness=witness,
    )
