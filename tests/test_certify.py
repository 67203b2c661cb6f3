"""Certificate pipeline: verdicts, obstruction routing, witness replay."""

import pytest

import json
import random
from itertools import combinations, permutations, product

from gnorm.config import RunConfig
from gnorm.errors import CapExceeded, InvalidParameter, VerificationFailed
from gnorm.graphs import (
    BipartiteGraph,
    EdgeColouring,
    complete_bipartite,
    cycle,
    star,
)
from gnorm import graphs, symmetry
from gnorm.symmetry import _all_automorphisms, _edge_table, isomorphic
from gnorm.certify import (
    _class_a_violation,
    _inclusion_family_rule,
    certify_family,
    certify_not_norming,
)
from gnorm.constructions import (
    Tournament,
    bipartite_kneser,
    clockwise_tournament,
    colouring_from_tournament,
    hypercube,
    quadratic_residue_tournament,
    set_inclusion_graph,
    subdivided_complete,
)

from conftest import GOLDEN, _arc_transitive, disjoint_union, regenerate


class TestStarExceptions:
    def test_single_edge(self):
        g = star(1)
        cert = certify_not_norming(g)
        assert cert.verdict == "SeminormingException"
        assert cert.obstruction == "StarException"

    def test_even_star(self):
        cert = certify_not_norming(star(4))
        assert cert.verdict == "SeminormingException"
        assert cert.witness["leaves"] == 4

    def test_union_of_matching_stars(self):
        g, _ = disjoint_union([(star(2), EdgeColouring((0, 0)))] * 3)
        cert = certify_not_norming(g)
        assert cert.verdict == "SeminormingException"
        assert cert.witness["copies"] == 3

    def test_odd_star_is_not_exception(self):
        cert = certify_not_norming(star(3))
        assert cert.verdict == "NotNorming"
        assert cert.obstruction == "NotEulerian"

    def test_mixed_star_sizes_not_exception(self):
        g, _ = disjoint_union(
            [(star(2), EdgeColouring((0, 0))), (star(4), EdgeColouring((0,) * 4))]
        )
        cert = certify_not_norming(g)
        assert cert.verdict == "NotNorming"  # unequal components


class TestGenericPipeline:
    def test_hexagon_no_obstruction(self, c6):
        cert = certify_not_norming(c6)
        assert cert.verdict == "NoObstructionFound"
        assert [1, 0, 1, 0, 1, 0] in cert.surviving
        assert not cert.cap_hit

    def test_square_no_obstruction(self, c4):
        cert = certify_not_norming(c4)
        assert cert.verdict == "NoObstructionFound"

    def test_odd_degrees_beat_biregularity_check(self, k23):
        # complete K_{2,3} is biregular but has odd right degrees
        cert = certify_not_norming(k23)
        assert cert.obstruction == "NotEulerian"

    def test_not_biregular(self):
        # an Eulerian graph with unequal left degrees: two squares sharing
        # their colour pattern plus a doubled square through one vertex
        g = BipartiteGraph(
            ("a0", "a1", "a2"), ("b0", "b1"),
            (("a0", "b0"), ("a0", "b1"), ("a1", "b0"), ("a1", "b1"),
             ("a2", "b0"), ("a2", "b1")),
        )
        # all left degrees 2, right degrees 3: biregular but odd on the right
        cert = certify_not_norming(g)
        assert cert.obstruction == "NotEulerian"
        # K_{2,4} with a pendant square gives genuinely mixed left degrees
        g2 = BipartiteGraph(
            ("a0", "a1", "a2"), ("b0", "b1", "b2", "b3"),
            (("a0", "b0"), ("a0", "b1"), ("a0", "b2"), ("a0", "b3"),
             ("a1", "b0"), ("a1", "b1"), ("a2", "b2"), ("a2", "b3")),
        )
        cert = certify_not_norming(g2)
        assert cert.obstruction == "NotBiregular"
        assert cert.witness["left_degrees"] == [2, 4]

    def test_not_edge_transitive(self):
        # an even-degree biregular graph that is not edge-transitive:
        # the 8-cycle with both diagonals through opposite vertices... use
        # instead the vertex-disjoint union of two different even cycles
        g, _ = disjoint_union([
            (cycle(4), EdgeColouring((0,) * 4)),
            (cycle(8), EdgeColouring((0,) * 8)),
        ])
        cert = certify_not_norming(g)
        assert cert.obstruction == "NotEdgeTransitive"

    def test_k44_counting_stage(self):
        cert = certify_not_norming(complete_bipartite(4, 4))
        assert cert.verdict == "NoObstructionFound"
        assert cert.stages[-1] == {
            "stage": "counting-laws", "status": "ran",
            "survivors": 18, "kappa_max": 16, "pattern_max": 28}

    def test_stage_log_present(self, c6):
        cert = certify_not_norming(c6)
        names = [s["stage"] for s in cert.stages]
        assert names[0] == "star-exception"
        assert "transitive-colourings" in names
        assert "counting-laws" in names


class TestHypercubes:
    def test_q3(self):
        cert = certify_family("hypercube", [3])
        assert cert.verdict == "NotNorming"
        assert cert.obstruction == "NotEulerian"

    def test_q2(self):
        cert = certify_family("hypercube", [2])
        assert cert.verdict == "NoObstructionFound"

    def test_q4_dichotomy(self):
        cert = certify_family("hypercube", [4])
        assert cert.verdict == "NotNorming"
        assert cert.obstruction in ("KappaNotMaximal", "FourCyclePatternSuboptimal")
        assert cert.witness["dichotomy"] == {
            "girth-cycle-law": 2952, "kappa": 12, "pattern": 6, "none": 0}
        assert cert.witness["kappa_max"] == 16
        assert cert.witness["pattern_max"] == 24

    def test_q4_profiles_the_balanced_colourings_once(self, monkeypatch):
        # the counting references and the laws' failures read one profile
        # pass over the 2970 balanced colourings
        from gnorm import certify
        calls, real = [], certify._profiles
        monkeypatch.setattr(certify, "_profiles",
                            lambda matrix, *cycles: calls.append(len(matrix)) or
                            real(matrix, *cycles))
        cert = certify_not_norming(hypercube(4))
        assert sum(cert.witness["dichotomy"].values()) == 2970
        assert calls == [2970]

    def test_q4_witness_replays(self):
        cert = certify_family("hypercube", [4])
        q4 = hypercube(4)
        best = EdgeColouring(tuple(cert.witness["kappa_argmax"]))
        from gnorm.cycles import kappa_alternating
        assert kappa_alternating(q4, best, 4) == cert.witness["kappa_max"]

    def test_q6_profile_witness(self):
        cert = certify_family("hypercube", [6])
        assert cert.verdict == "NotNorming"
        assert cert.witness["alpha"]["c2"] > 0
        assert cert.witness["beta"]["c2"] == 0
        total = cert.witness["identities"]["four_cycles"]
        prof = cert.witness["alpha"]
        assert prof["c1"] + prof["c2"] + prof["c3"] + prof["c4"] == total

    def test_q5_odd(self):
        cert = certify_family("hypercube", [5])
        assert cert.obstruction == "NotEulerian"

    def test_q1_star(self):
        cert = certify_family("hypercube", [1])
        assert cert.verdict == "SeminormingException"


class TestKneserFamily:
    def test_norming_base_case(self):
        cert = certify_family("kneser", [3, 1])
        assert cert.verdict == "NoObstructionFound"

    def test_integrality_route(self):
        cert = certify_family("kneser", [7, 3])
        assert cert.obstruction == "IntegralityFailure"
        assert cert.witness["d"] == [100, 3]

    def test_even_n_eulerian_route(self):
        cert = certify_family("kneser", [4, 1])
        assert cert.obstruction == "NotEulerian"

    def test_r1_family(self):
        cert = certify_family("kneser", [5, 1])
        assert cert.verdict == "NotNorming"
        assert cert.rule == "kneser-r1-family"

    def test_r2_routes(self):
        cert = certify_family("kneser", [7, 2])
        assert cert.verdict == "NotNorming"
        assert cert.rule == "inclusion-r2-family"
        # 6 choose ... n=6: degree C(4,2)=6 even, class pair (4,2) fails
        cert = certify_family("kneser", [6, 2])
        assert cert.obstruction in ("ClassAViolation", "NotEulerian")

    def test_r3_routes(self):
        cert = certify_family("kneser", [9, 3])
        assert cert.rule == "inclusion-r3-even-family"
        cert = certify_family("kneser", [8, 3])
        assert cert.rule == "inclusion-53-family"

    def test_every_small_kneser_not_norming(self):
        for n in range(4, 14):
            for r in range(1, 6):
                if n - r <= r:
                    continue
                cert = certify_family("kneser", [n, r])
                assert cert.verdict == "NotNorming", (n, r)

    def test_guards(self):
        with pytest.raises(InvalidParameter):
            certify_family("kneser", [4, 2])


class TestInclusionFamily:
    def test_r1_cycle_space_route(self):
        cert = certify_family("inclusion", [6, 4, 1])
        assert cert.verdict == "NotNorming"
        assert cert.rule == "inclusion-r1-family"
        assert cert.witness["four_cycles_generate_cycle_space"] is True

    def test_delegates_to_kneser(self):
        cert = certify_family("inclusion", [7, 4, 3])
        assert cert.obstruction == "IntegralityFailure"

    def test_delegates_to_subdivision(self):
        cert = certify_family("inclusion", [5, 2, 1])
        assert cert.family["family"] == "inclusion"
        assert cert.verdict == "NotNorming"

    def test_odd_degree(self):
        cert = certify_family("inclusion", [6, 3, 1])
        assert cert.obstruction == "NotEulerian"

    @pytest.mark.parametrize("config", [RunConfig(), RunConfig(cap_vertices=300)])
    def test_fallback_passes_no_hint(self, monkeypatch, config):
        # the fallback builds I(9, 6, 5) itself, whose class-A pairs the family
        # rules have already checked: a hint could only prove the graph
        # isomorphic to itself and re-check them
        calls = []
        search = symmetry.isomorphic
        monkeypatch.setattr(symmetry, "isomorphic",
                            lambda *args: calls.append(args) or search(*args))
        cert = certify_family("inclusion", [9, 6, 5], config)
        assert not calls
        assert "arithmetic-shortcut" not in [s["stage"] for s in cert.stages]
        assert cert.verdict == "NoObstructionFound" and cert.cap_hit
        assert cert.witness == {"note": "balanced enumeration capped"}


class TestFamilyParameters:
    @pytest.mark.parametrize("family, params", [
        ("hypercube", []),
        ("hypercube", [4, 5]),
        ("kneser", [7]),
        ("kneser", [7, 3, 9]),
        ("inclusion", [6, 4]),
        ("subdivided-complete", []),
    ])
    def test_wrong_parameter_count_raises(self, family, params):
        with pytest.raises(InvalidParameter, match=rf"takes \d parameter.*got {len(params)}$"):
            certify_family(family, params)

    def test_unknown_family(self):
        with pytest.raises(InvalidParameter, match="unknown family 'petersen'"):
            certify_family("petersen", [5])


class TestSetInclusionRules:
    """The class-A and family rules shared by the Kneser, inclusion and
    hinted-graph routes."""

    def test_class_a_violation_agrees_with_the_clause_list(self):
        from gnorm.arithmetic import class_A_membership

        for n in range(3, 13):
            for k in range(2, n):
                for r in range(1, k):
                    pairs = list(dict.fromkeys(((k, r), (n - r, n - k))))
                    checked = {}
                    cert = _class_a_violation(n, k, r, checked)
                    failing = [p for p in pairs if not class_A_membership(*p)]
                    if failing:
                        assert cert.obstruction == "ClassAViolation"
                        assert cert.rule == "hypergraph-class-duality"
                        assert cert.witness == {"failing_pair": list(failing[0])}
                        stop = pairs.index(failing[0]) + 1
                    else:
                        assert cert is None, (n, k, r)
                        stop = len(pairs)
                    assert list(checked) == [
                        f"class_membership_{kk}_{rr}" for kk, rr in pairs[:stop]
                    ], (n, k, r)

    def test_self_dual_pair_is_checked_once(self, monkeypatch):
        # k = n - r: (k, r) is its own dual
        import gnorm.certify as C

        calls = []
        real = C.class_A_membership
        monkeypatch.setattr(C, "class_A_membership", lambda k, r: calls.append((k, r)) or real(k, r))
        checked = {}
        _class_a_violation(7, 4, 3, checked)
        assert list(checked) == ["class_membership_4_3"]
        assert calls == [(4, 3)]

    def test_inclusion_family_rule_table(self):
        expected = {}
        for n in range(3, 13):
            for k in range(2, n):
                for r in range(1, k):
                    rule = None
                    if r == 2 and k in (5, 7, 9, 11):
                        rule = "inclusion-r2-family"
                    elif r == 3 and k in (4, 6, 8, 10):
                        rule = "inclusion-r3-even-family"
                    elif (r, k) == (3, 5) and n >= 7:
                        rule = "inclusion-53-family"
                    expected[n, k, r] = rule
        assert {key: _inclusion_family_rule(*key) for key in expected} == expected


class TestSubdivisionFamily:
    def test_triangle_is_clean(self):
        cert = certify_family("subdivided-complete", [3])
        assert cert.verdict == "NoObstructionFound"

    def test_k2_star(self):
        cert = certify_family("subdivided-complete", [2])
        assert cert.verdict == "SeminormingException"

    def test_even_not_eulerian(self):
        cert = certify_family("subdivided-complete", [4])
        assert cert.obstruction == "NotEulerian"

    def test_k5_tournament_scan(self):
        cert = certify_family("subdivided-complete", [5])
        assert cert.obstruction == "NoTransitiveColouring"
        assert cert.witness["balanced_colourings"] == 24
        assert cert.witness["transitive_colourings"] == 0
        assert cert.witness["per_arc"] == [3, 2]  # (d+1)/2 = 3/2

    def test_k7_cycle_count_witness(self):
        cert = certify_family("subdivided-complete", [7])
        assert cert.obstruction == "KappaNotMaximal"
        assert cert.witness["enumerated_quadratic_residue"] == 21
        assert cert.witness["enumerated_clockwise"] == 28

    def test_k9_arithmetic(self):
        cert = certify_family("subdivided-complete", [9])
        assert cert.verdict == "NotNorming"
        assert cert.obstruction == "NoTransitiveColouring"

    def test_generic_pipeline_agrees_on_k5(self):
        cert = certify_not_norming(subdivided_complete(5))
        assert cert.verdict == "NotNorming"
        assert cert.obstruction == "NoTransitiveColouring"
        assert cert.witness["mode"] == "exhaustive"


def brute_arc_transitive(t: Tournament) -> bool:
    """Reference: the orbit of the first arc under every vertex permutation
    that maps arcs to arcs."""
    autos = []
    arcs = set(t.arcs)
    for perm in permutations(range(t.n)):
        if all((perm[x], perm[y]) in arcs for x, y in arcs):
            autos.append(perm)
    start = t.arcs[0]
    orbit = {start}
    frontier = [start]
    while frontier:
        x, y = frontier.pop()
        for perm in autos:
            img = (perm[x], perm[y])
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return len(orbit) == len(arcs)


def random_tournament(n: int, rng: random.Random) -> Tournament:
    return Tournament(n, tuple((i, j) if rng.random() < 0.5 else (j, i)
                               for i, j in combinations(range(n), 2)))


def every_tournament(n: int):
    pairs = list(combinations(range(n), 2))
    for bits in product((0, 1), repeat=len(pairs)):
        yield Tournament(n, tuple((i, j) if b else (j, i) for (i, j), b in zip(pairs, bits)))


class TestArcTransitivity:
    # the oracle's route: the side-preserving group of subdivided K_n, built
    # once per n, and each tournament's colour-preserving rows of it
    _tables: dict = {}

    def table(self, n: int):
        if n not in self._tables:
            g = subdivided_complete(n)
            self._tables[n] = _edge_table(g, _all_automorphisms(g, RunConfig(side_swap=False)))
        return self._tables[n]

    def arc_transitive(self, t: Tournament) -> bool:
        _, a = colouring_from_tournament(t)
        return _arc_transitive(self.table(t.n), a.colours)

    def test_qr7_is_arc_transitive(self):
        assert self.arc_transitive(quadratic_residue_tournament(7))

    def test_clockwise_7_is_not(self):
        assert not self.arc_transitive(clockwise_tournament(7))

    def test_triangle_is(self):
        assert self.arc_transitive(clockwise_tournament(3))

    def test_every_tournament_on_five_vertices(self):
        # none is arc-transitive, which is stronger than the family
        # certificate's finding of no transitive colouring of subdivided K5
        assert not any(self.arc_transitive(t) for t in every_tournament(5))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_one_group_for_every_tournament(self, n):
        # every tournament for n <= 5; for n = 7 every rotational tournament
        # on Z_7 (QR7 and its converse are the arc-transitive ones)
        cases = list(every_tournament(n)) if n < 7 else [
            Tournament(7, tuple((x, (x + s) % 7) for x in range(7) for s in jumps))
            for jumps in product(*((s, 7 - s) for s in (1, 2, 3)))]
        for t in cases:
            assert self.arc_transitive(t) == brute_arc_transitive(t), t

    @pytest.mark.parametrize("n", [6, 7])
    def test_seeded_samples(self, n):
        rng = random.Random(n)
        for t in [random_tournament(n, rng) for _ in range(15)]:
            assert self.arc_transitive(t) == brute_arc_transitive(t), t

    def test_vertex_cap(self):
        # the family check searches subdivided K5, which has 15 vertices
        with pytest.raises(CapExceeded):
            certify_family("subdivided-complete", [5], RunConfig(cap_vertices=10))

    @pytest.mark.parametrize("side_swap", [True, False])
    def test_k5_check_filters_the_balanced_colourings(self, monkeypatch, side_swap):
        # the family check hands the transitive filter the 24 balanced
        # colourings (the regular tournaments) with the caller's config,
        # whatever its edge cap, and one orbit needs one check
        seen, checks = [], []
        orbit_mask, transitive_under = symmetry._orbit_mask, symmetry._transitive_under

        def spy(g, rows, config):
            seen.append((rows, config))
            return orbit_mask(g, rows, config)

        monkeypatch.setattr(symmetry, "_orbit_mask", spy)
        monkeypatch.setattr(symmetry, "_transitive_under",
                            lambda perms, row: checks.append(row) or transitive_under(perms, row))
        config = RunConfig(side_swap=side_swap, cap_edges=4)
        certify_family("subdivided-complete", [5], config)
        [(rows, got)] = seen
        g = subdivided_complete(5)
        assert got == config and len(checks) == 1
        assert rows.tolist() == graphs._balanced_rows(g, RunConfig(cap_edges=20)).tolist()
        assert sorted(tuple(r) for r in rows.tolist()) == sorted(
            colouring_from_tournament(t)[1].colours for t in every_tournament(5) if t.is_regular())

    def test_a_transitive_k5_colouring_is_refused(self, monkeypatch):
        monkeypatch.setattr(symmetry, "_transitive_under", lambda perms, row: True)
        with pytest.raises(VerificationFailed, match="unexpected transitive colouring"):
            certify_family("subdivided-complete", [5])

    def test_k5_family_certificate_is_pinned(self):
        cert = certify_family("subdivided-complete", [5])
        assert json.dumps(cert.to_json()) == (
            '{"verdict": "NotNorming", "obstruction": "NoTransitiveColouring", '
            '"rule": "arc-transitive-three-cycles", "witness": {"three_cycles": 5, '
            '"per_arc": [3, 2], "four_cycles_if_arc_transitive": [15, 4], '
            '"mode": "arithmetic", "balanced_colourings": 24, "transitive_colourings": 0}, '
            '"automorphism_mode": {"side_swap": true}, "stages": [], "cap_hit": false, '
            '"family": {"family": "subdivided-complete", "n": 5}}')


def test_hypercube_family_matches_its_golden_file():
    # Q_1..Q_12 as sorted JSON text, compared exactly, so any changed field
    # of any entry fails; tests/golden/regenerate.py rewrites the file
    want = (GOLDEN / "hypercube_family.json").read_text()
    assert regenerate().hypercube_family_text() == want


def test_family_grid_and_survey_match_their_golden_files():
    # the kneser, inclusion and subdivided-complete grid, refusals included,
    # and the survey graphs with hinted H(6,2), compared exactly as above
    golden = regenerate()
    assert golden.family_grid_text() == (GOLDEN / "family_grid.json").read_text()
    assert golden.certify_survey_text() == (GOLDEN / "certify_survey.json").read_text()


def random_four_regular(n: int, seed: int) -> BipartiteGraph:
    """Union of four edge-disjoint random perfect matchings on n + n vertices."""
    rng = random.Random(seed)
    edges: set[tuple[str, str]] = set()
    for _ in range(4):
        while True:
            images = list(range(n))
            rng.shuffle(images)
            matching = {(f"a{i}", f"b{j}") for i, j in enumerate(images)}
            if not matching & edges:
                edges |= matching
                break
    return BipartiteGraph(tuple(f"a{i}" for i in range(n)),
                          tuple(f"b{j}" for j in range(n)), tuple(sorted(edges)))


class TestHints:
    def test_kneser_hint_unlocks_integrality(self, monkeypatch):
        # H(7, 3) has 70 vertices: the hint is trusted only once the graph is
        # proved isomorphic to the reference, which needs cap_vertices >= 70.
        # A small group cap stops the automorphism stage early instead of
        # materialising all 10080 automorphisms, which the shortcut does not need.
        g = bipartite_kneser(7, 3)
        with monkeypatch.context() as patch:
            patch.setattr(symmetry, "_GROUP_CAP", 100)
            cert = certify_not_norming(g, ("kneser", 7, 3), RunConfig(cap_vertices=80))
        assert cert.obstruction == "IntegralityFailure"
        assert {"stage": "edge-transitive", "status": "cap-exceeded",
                "needed": 10080, "cap": 100} in cert.stages
        cert = certify_not_norming(g, ("kneser", 7, 3))
        assert cert.obstruction != "IntegralityFailure"
        assert {"stage": "arithmetic-shortcut", "status": "skipped",
                "reason": "hint reference too large to verify"} in cert.stages

    def test_shape_match_alone_is_not_trusted(self):
        # same sizes and degrees as H(7, 3), but a different graph
        g = random_four_regular(35, seed=5)
        assert not isomorphic(g, bipartite_kneser(7, 3), RunConfig(cap_vertices=80))
        for config in (RunConfig(), RunConfig(cap_vertices=80)):
            cert = certify_not_norming(g, ("kneser", 7, 3), config)
            assert cert.obstruction != "IntegralityFailure"

    def test_wrong_hint_is_ignored(self, c6):
        cert = certify_not_norming(c6, ("kneser", 7, 3))
        assert cert.verdict == "NoObstructionFound"
        reasons = [s.get("reason", "") for s in cert.stages]
        assert "graph not isomorphic to hinted family" in reasons

    def test_class_violation_route(self):
        g = set_inclusion_graph(6, 4, 2)
        cert = certify_not_norming(g, ("inclusion", 6, 4, 2))
        assert cert.obstruction == "ClassAViolation"

    @pytest.mark.parametrize("hint, message", [
        (("kneser", 6, 2, 99), "takes 2 parameter"),
        (("inclusion", 6, 4, 2, 7), "takes 3 parameter"),
        (("kneser", 6), "takes 2 parameter"),
        (("nope", 1, 2), "unknown hint family"),
        (("kneser", "6", "x"), "takes integer parameters"),
        (("kneser", 6, 2.5), "takes integer parameters"),
    ])
    def test_malformed_hint_is_refused(self, hint, message):
        # refused before any stage runs: a malformed hint is neither used as
        # a shorter one nor skipped like a hint that does not fit the graph
        with pytest.raises(InvalidParameter, match=message):
            certify_not_norming(cycle(6), hint)

    def test_text_fields_read_as_integers(self):
        # the CLI splits "kneser:6:2" into strings
        g = bipartite_kneser(6, 2)
        assert (certify_not_norming(g, ["kneser", "6", "2"]).to_json()
                == certify_not_norming(g, ("kneser", 6, 2)).to_json())

    def test_degenerate_hint_is_a_logged_skip(self, c6):
        cert = certify_not_norming(c6, ("kneser", 4, 2))
        assert cert.verdict == "NoObstructionFound"
        assert any(s.get("reason", "").startswith("bad hint") for s in cert.stages)


def test_no_balanced_colouring_past_the_eulerian_stage_is_a_verification_failure(
        monkeypatch):
    # every degree is even there, so colouring each component's Euler circuit
    # 1, 0, 1, 0, ... is balanced: an empty set can only be a faulty enumerator,
    # and it must not become a NotNorming certificate
    monkeypatch.setattr(graphs, "iter_balanced_colourings", lambda g, config: iter(()))
    with pytest.raises(VerificationFailed):
        certify_not_norming(cycle(6))


@pytest.mark.parametrize("g, hint, config, outcome, searches", [
    (cycle(6), None, RunConfig(), "NoObstructionFound", [6, 6]),
    (bipartite_kneser(6, 2), ("kneser", 6, 2), RunConfig(), "ClassAViolation", [30]),
    (hypercube(4), None, RunConfig(cap_edges=2), "NoObstructionFound", [16]),
], ids=["C6-filter", "H62-hinted-shortcut", "Q4-capped-enumeration"])
def test_group_is_searched_again_only_for_the_filter(monkeypatch, g, hint, config,
                                                     outcome, searches):
    # the edge-transitivity report searches the whole group once; only the
    # transitive-colouring filter, which reads every element, searches again
    calls = []

    def counted(g, config):
        calls.append(g.n_vertices)
        return _all_automorphisms(g, config)

    monkeypatch.setattr(symmetry, "_all_automorphisms", counted)
    cert = certify_not_norming(g, hint, config)
    assert (cert.obstruction or cert.verdict) == outcome
    assert calls == searches


def test_filter_looks_the_check_up_when_it_runs(monkeypatch):
    # a wrapper on symmetry._transitive_under, as a tracer installs, sees the
    # filter's one call per orbit of Q4's balanced colourings
    calls = []
    check = symmetry._transitive_under

    def counted(perms, colours):
        calls.append(colours)
        return check(perms, colours)

    monkeypatch.setattr(symmetry, "_transitive_under", counted)
    assert certify_not_norming(hypercube(4)).obstruction == "KappaNotMaximal"
    assert len(calls) == 21


# hypercube 1-10, kneser n <= 14, inclusion n <= 9, subdivided-complete 2-11
_FAMILY_GRID = [
    *(("hypercube", (d,)) for d in range(1, 11)),
    *(("kneser", (n, r)) for n in range(3, 15) for r in range(1, n) if n - r > r),
    *(("inclusion", (n, k, r)) for n in range(3, 10) for k in range(2, n) for r in range(1, k)),
    *(("subdivided-complete", (n,)) for n in range(2, 12)),
]


class TestCertificateJson:
    @pytest.mark.parametrize("side_swap", [True, False])
    def test_family_certificates_record_the_configured_mode(self, side_swap):
        config = RunConfig(side_swap=side_swap)
        for family, params in _FAMILY_GRID:
            blob = certify_family(family, params, config).to_json()
            assert blob["automorphism_mode"] == {"side_swap": side_swap}, (family, params)
            names = {"hypercube": "d", "kneser": "nr", "inclusion": "nkr",
                     "subdivided-complete": "n"}[family]
            assert blob["family"] == {"family": family, **dict(zip(names, params))}

    def test_serialises(self):
        cert = certify_family("kneser", [7, 3])
        blob = cert.to_json()
        assert blob["verdict"] == "NotNorming"
        assert blob["rule"] == "kneser-integrality"
        assert blob["family"] == {"family": "kneser", "n": 7, "r": 3}
        import json
        json.dumps(blob)  # must be serialisable as-is


def replay_certificate(cert) -> bool:
    """Re-verify a certificate's witness through the originating operation."""
    from fractions import Fraction
    from gnorm.arithmetic import class_A_membership, kneser_integrality_test
    from gnorm.cycles import kappa_alternating
    if cert.obstruction == "NotEulerian":
        deg = cert.witness.get("degree") or cert.witness.get("regular_degree") \
            or cert.witness.get("left_degree") or cert.witness.get("right_degree") \
            or cert.witness.get("branch_degree")
        return deg % 2 == 1
    if cert.obstruction == "IntegralityFailure":
        sub = cert.witness.get("integrality", cert.witness)
        num, den = sub["d"]
        n = cert.family["n"] if cert.family else cert.witness["n"]
        r = cert.family.get("r", cert.witness.get("r")) if cert.family else cert.witness["r"]
        res = kneser_integrality_test(n, r)
        return res.d == Fraction(num, den) and not res.is_integer
    if cert.obstruction == "ClassAViolation":
        k, r = cert.witness["failing_pair"]
        return not class_A_membership(k, r)
    if cert.obstruction == "KappaNotMaximal" and "kappa_argmax" in cert.witness:
        from gnorm.constructions import hypercube
        d = cert.family["d"]
        g = hypercube(d)
        best = EdgeColouring(tuple(cert.witness["kappa_argmax"]))
        return kappa_alternating(g, best, 4) == cert.witness["kappa_max"]
    if cert.obstruction == "NoTransitiveColouring":
        return True  # exhaustive scans re-run in their own tests
    return True


class TestWitnessReplay:
    def test_family_certificates_replay(self):
        cases = [
            ("hypercube", [3]), ("hypercube", [4]), ("hypercube", [5]),
            ("kneser", [7, 3]), ("kneser", [4, 1]), ("kneser", [6, 2]),
            ("kneser", [11, 5]), ("inclusion", [6, 3, 1]),
            ("subdivided-complete", [4]),
        ]
        for family, params in cases:
            cert = certify_family(family, params)
            assert cert.verdict == "NotNorming", (family, params)
            assert replay_certificate(cert), (family, params)


class TestInclusionDelegation:
    def test_dual_subdivision_form(self):
        # I(5, 4, 3) is the 1-subdivision of the complete graph with the
        # sides swapped
        cert = certify_family("inclusion", [5, 4, 3])
        assert cert.verdict == "NotNorming"
        assert cert.obstruction == "NoTransitiveColouring"


class TestKnownNormingGraphsSurvive:
    def test_subdivided_octahedron(self):
        # 1-subdivision of the complete tripartite graph with doubled
        # vertices: a norming graph whose canonical colouring pair must
        # survive the whole pipeline
        from itertools import combinations
        from gnorm.constructions import subdivide
        verts = [f"v{i}" for i in range(6)]
        anti = {frozenset(("v0", "v1")), frozenset(("v2", "v3")),
                frozenset(("v4", "v5"))}
        edges = [(a, b) for a, b in combinations(verts, 2)
                 if frozenset((a, b)) not in anti]
        cert = certify_not_norming(subdivide(verts, edges))
        assert cert.verdict == "NoObstructionFound"
        assert len(cert.surviving) == 2  # the colouring and its conjugate


class TestEnumerativeRederivations:
    def test_complete_minus_matching_5(self):
        # the 4-regular complete-bipartite-minus-matching graph admits
        # transitive colourings, yet every one of them loses a counting
        # law to some balanced colouring: a fully enumerative proof that
        # the graph is not norming
        cert = certify_not_norming(set_inclusion_graph(5, 4, 1))
        assert cert.verdict == "NotNorming"
        assert cert.obstruction in ("KappaNotMaximal",
                                    "FourCyclePatternSuboptimal",
                                    "GirthCycleLawViolated")
        assert cert.witness["dichotomy"]["none"] >= 0


class TestPipelineFuzz:
    def test_random_graphs_never_crash_and_verdicts_are_coherent(self):
        import random
        from gnorm.graphs import is_eulerian, is_biregular
        rng = random.Random(99)
        ran = 0
        for _ in range(60):
            pairs = [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)]
            edges = [p for p in pairs if rng.random() < 0.6]
            if not edges:
                continue
            g = BipartiteGraph(
                tuple(sorted({u for u, _ in edges})),
                tuple(sorted({v for _, v in edges})),
                tuple(edges),
            )
            cert = certify_not_norming(g)
            ran += 1
            assert cert.verdict in ("NotNorming", "NoObstructionFound",
                                    "SeminormingException")
            if cert.obstruction == "NotEulerian":
                assert not is_eulerian(g)
            if cert.obstruction == "NotBiregular":
                assert not is_biregular(g)
            if cert.verdict == "NoObstructionFound" and not cert.cap_hit:
                assert cert.surviving  # some colouring must have survived
        assert ran >= 40
