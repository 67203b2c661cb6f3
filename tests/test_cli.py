"""CLI end-to-end: commands, file formats, exit codes, determinism."""

import json
import math
import subprocess
import sys

import pytest

from gnorm import symmetry
from gnorm.cli import main
from gnorm.config import RunConfig
from gnorm.constructions import hypercube, hypercube_alpha
from gnorm.graphs import (
    EdgeColouring,
    complete_bipartite,
    cycle,
    graph_to_json,
    iter_balanced_colourings,
)
from gnorm.kernels import StepKernel, kernel_to_json

from conftest import PHASE_3, PHASE_3_CONJ, colouring_to_json, kernel_json, path


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in (
        ("c4", graph_to_json(cycle(4))),
        ("c6", graph_to_json(cycle(6))),
        ("alt4", colouring_to_json(EdgeColouring((1, 0, 1, 0)))),
        ("mono4", colouring_to_json(EdgeColouring((1, 1, 1, 1)))),
        ("alt6", colouring_to_json(EdgeColouring((1, 0, 1, 0, 1, 0)))),
        ("sign", kernel_to_json(StepKernel([[1, 1], [1, -1]]))),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def group_searches(monkeypatch):
    """The sizes of the graphs whose automorphism group was searched."""
    calls = []
    search = symmetry._all_automorphisms

    def counted(g, config):
        calls.append(g.n_vertices)
        return search(g, config)

    monkeypatch.setattr(symmetry, "_all_automorphisms", counted)
    return calls


class TestCheck:
    def test_green_report(self, files, capsys):
        code, out = run_cli(["check", files["c6"], files["alt6"]], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["eulerian"] and report["biregular"]
        assert report["balanced"] and report["transitive"]

    def test_capped_symmetry_keeps_the_report(self, capsys, tmp_path):
        # every automorphism search stops at the vertex cap; each is marked
        # skipped and the structural report still comes out
        graph, colouring = tmp_path / "q4.json", tmp_path / "q4a.json"
        graph.write_text(json.dumps(graph_to_json(hypercube(4))))
        colouring.write_text(json.dumps(colouring_to_json(hypercube_alpha(4))))
        code, out = run_cli(["check", str(graph), str(colouring), "--cap-vertices", "10"],
                            capsys)
        assert code == 0
        report = json.loads(out)
        assert (report["vertices"], report["edges"], report["girth"]) == (16, 32, 4)
        assert report["eulerian"] and report["biregular"] and report["balanced"]
        skipped = "skipped (automorphism search: needs 16, cap is 10)"
        for key in ("edge_transitive", "self_conjugate", "transitive"):
            assert report[key] == skipped

    def test_capped_cycle_enumeration_keeps_the_report(self, capsys, tmp_path):
        # both 4-cycle stages stop at the cycle cap; the symmetry stages,
        # which enumerate no cycles, still answer
        graph, colouring = tmp_path / "q4.json", tmp_path / "q4a.json"
        graph.write_text(json.dumps(graph_to_json(hypercube(4))))
        colouring.write_text(json.dumps(colouring_to_json(hypercube_alpha(4))))
        code, out = run_cli(["check", str(graph), str(colouring), "--cap-cycles", "1"],
                            capsys)
        assert code == 0
        report = json.loads(out)
        skipped = "skipped (cycle enumeration: needs 2, cap is 1)"
        for key in ("four_cycle_profile", "four_cycles_generate_cycle_space"):
            assert report[key] == skipped
        assert report["automorphism_group_order"] == 384
        assert report["balanced"] and report["self_conjugate"] and report["transitive"]

    @pytest.mark.parametrize("colouring,symmetric", [("alt6", True), (None, None)])
    def test_one_group_search_per_command(self, files, capsys, group_searches,
                                          colouring, symmetric):
        args = ["check", files["c6"]] + ([files[colouring]] if colouring else [])
        code, out = run_cli(args, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["automorphism_group_order"] == 12
        assert report.get("self_conjugate") is symmetric
        assert report.get("transitive") is symmetric
        assert group_searches == [6]

    def test_unbalanced_colouring_reads_false(self, files, capsys, group_searches):
        code, out = run_cli(["check", files["c4"], files["mono4"]], capsys)
        report = json.loads(out)
        assert report["balanced"] is False
        assert report["self_conjugate"] is False and report["transitive"] is False
        assert group_searches == [4]

    def test_parse_error_exit_code(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        code = main(["check", str(bad)])
        assert code == 1

    def test_fractional_colours_are_a_parse_error(self, files, capsys, tmp_path):
        # once read as (0, 0, 1, 1) and reported on with exit 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"colours": [0.6, 0.4, 1.5, 1.2]}))
        assert main(["check", files["c4"], str(bad)]) == 1
        captured = capsys.readouterr()
        assert "parse error" in captured.err and not captured.out

    def test_string_sides_are_a_parse_error(self, capsys, tmp_path):
        # once loaded as K_{2,2}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"left": "ab", "right": ["x", "y"],
                                   "edges": ["ax", "bx", "ay", "by"]}))
        assert main(["check", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "parse error" in captured.err and not captured.out


def check_report(capsys, tmp_path, g, a, *flags) -> dict:
    """The ``gnorm check`` report on a graph and a colouring."""
    gp, cp = tmp_path / "graph.json", tmp_path / "colouring.json"
    gp.write_text(json.dumps(graph_to_json(g)))
    cp.write_text(json.dumps(colouring_to_json(a)))
    code, out = run_cli(["check", str(gp), str(cp), *flags], capsys)
    assert code == 0
    return json.loads(out)


class TestCheckColouringVerdicts:
    """Self-conjugacy and transitivity as ``gnorm check`` reports them
    (``TestCheck`` and ``TestHypercubeCheck`` hold the unbalanced square and
    the two Q4 colourings)."""

    def test_alternating_square_is_self_conjugate(self, capsys, tmp_path, c4, alt4):
        report = check_report(capsys, tmp_path, c4, alt4)
        assert report["balanced"] is True and report["self_conjugate"] is True

    def test_unbalanced_c8_figure_is_not_self_conjugate(self, capsys, tmp_path):
        # two antipodal 2-paths in one colour: symmetric but not balanced
        report = check_report(capsys, tmp_path, cycle(8),
                              EdgeColouring((0, 0, 1, 1, 0, 0, 1, 1)))
        assert report["balanced"] is False and report["self_conjugate"] is False

    @pytest.mark.parametrize("length", [4, 6, 8])
    def test_alternating_cycles_are_transitive(self, capsys, tmp_path, length):
        alt = EdgeColouring(tuple(i % 2 for i in range(length)))
        assert check_report(capsys, tmp_path, cycle(length), alt)["transitive"] is True

    def test_hierarchy(self, capsys, tmp_path, c4):
        # transitive implies self-conjugate implies balanced
        for bits in range(16):
            a = EdgeColouring(tuple(bits >> i & 1 for i in range(4)))
            report = check_report(capsys, tmp_path, c4, a)
            if report["transitive"]:
                assert report["self_conjugate"], a.colours
            if report["self_conjugate"]:
                assert report["balanced"], a.colours


class TestCertify:
    def test_family_certificates(self, capsys):
        code, out = run_cli(["certify", "hypercube", "3"], capsys)
        assert code == 0
        assert json.loads(out)["obstruction"] == "NotEulerian"
        code, out = run_cli(["certify", "kneser", "7", "3"], capsys)
        blob = json.loads(out)
        assert blob["obstruction"] == "IntegralityFailure"
        assert blob["witness"]["d"] == [100, 3]

    def test_graph_certificate(self, files, capsys):
        code, out = run_cli(["certify", "graph", files["c6"]], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["verdict"] == "NoObstructionFound"
        assert [1, 0, 1, 0, 1, 0] in blob["surviving_colourings"]

    def test_out_of_range(self, capsys):
        assert main(["certify", "kneser", "4", "2"]) == 1

    @pytest.mark.parametrize("params, wanted", [
        (["kneser", "7"], 2), (["inclusion", "6", "4"], 3),
        (["kneser", "7", "3", "9"], 2), (["hypercube", "4", "5"], 1),
    ], ids=["kneser-short", "inclusion-short", "kneser-long", "hypercube-long"])
    def test_wrong_parameter_count_is_a_usage_error(self, capsys, params, wanted):
        assert main(["certify", *params]) == 1
        assert f"takes {wanted} parameter" in capsys.readouterr().err

    def test_non_integer_parameter_is_a_usage_error(self, capsys):
        # the family names its fields, rather than int() naming its literal
        assert main(["certify", "hypercube", "4.5"]) == 1
        err = capsys.readouterr().err
        assert "family 'hypercube' takes integer parameters, got ['4.5']" in err
        assert "invalid literal" not in err

    def test_graph_takes_one_file(self, files, capsys):
        assert main(["certify", "graph", files["c6"], files["c4"]]) == 1
        assert "one graph file" in capsys.readouterr().err

    @pytest.mark.parametrize("hint", ["kneser:7:3", ""])
    def test_hint_on_a_family_is_a_usage_error(self, capsys, hint):
        assert main(["certify", "kneser", "7", "3", "--hint", hint]) == 1
        captured = capsys.readouterr()
        assert "--hint" in captured.err and not captured.out


@pytest.fixture
def evaluations(monkeypatch):
    """The route of each density contraction, in call order."""
    from gnorm import density
    calls = []
    evaluate = density._evaluate

    def counted(route, g, factors):
        calls.append(route.method)
        return evaluate(route, g, factors)

    monkeypatch.setattr(density, "_evaluate", counted)
    return calls


class TestDensity:
    def test_value_and_cross_check(self, files, capsys, evaluations):
        code, out = run_cli(
            ["density", files["c4"], files["alt4"], files["sign"]], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["value"] == [0.5, 0.0]
        assert blob["cross_check_abs_diff"] == 0.0
        # auto takes the direct route, and the cross-check adds the other one
        assert evaluations == ["direct", "eliminate"]

    @pytest.fixture
    def c8_files(self, tmp_path):
        """C8, all colour 1, and a 3x3 kernel: 3^8 assignments send auto to
        the elimination route."""
        paths = []
        for name, payload in (
            ("c8", graph_to_json(cycle(8))),
            ("mono8", colouring_to_json(EdgeColouring((1,) * 8))),
            ("k3", kernel_to_json(StepKernel([[1, 2, 0.5j], [0, 1, 1], [-1, 1j, 2]]))),
        ):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(payload))
        return list(map(str, paths))

    def test_capped_cross_check_is_skipped(self, capsys, c8_files, evaluations):
        # the direct cross-check is over the cap, so it is skipped and the
        # value stands
        cap = ["--cap-assignments", "1000"]
        code, out = run_cli(["density", *c8_files, *cap], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["cross_check_abs_diff"] == (
            "skipped (direct density evaluation: needs 6561, cap is 1000)")
        assert evaluations == ["eliminate"]
        _, elim = run_cli(["density", *c8_files, "--mode", "eliminate", *cap], capsys)
        assert blob["value"] == json.loads(elim)["value"]

    def test_auto_plans_the_elimination_once(self, capsys, c8_files, monkeypatch):
        # auto is decided from the assignment count, so only the value's own
        # evaluation orders the vertices; the direct cross-check needs none
        from gnorm import density
        calls = []
        order = density._elimination_order

        def counted(scopes, n):
            calls.append(n)
            return order(scopes, n)

        monkeypatch.setattr(density, "_elimination_order", counted)
        code, out = run_cli(["density", *c8_files], capsys)
        assert code == 0
        assert json.loads(out)["cross_check_abs_diff"] < 1e-12
        assert calls == [8]

    def test_transpose_shape_guard(self, files, capsys, tmp_path):
        rect = tmp_path / "rect.json"
        rect.write_text(json.dumps(kernel_to_json(StepKernel(((1, 2, 3),)))))
        code = main(["density", files["c4"], files["alt4"], str(rect),
                     "--variant", "r"])
        assert code == 1


class TestColourings:
    def test_balanced_listing(self, files, capsys):
        code, out = run_cli(["colourings", files["c4"]], capsys)
        blob = json.loads(out)
        assert blob["count"] == 2
        assert blob["colourings"] == [[0, 1, 0, 1], [1, 0, 1, 0]]

    def test_transitive_filter_searches_the_group_once(self, files, capsys,
                                                       group_searches):
        code, out = run_cli(["colourings", files["c6"], "--transitive"], capsys)
        assert code == 0
        assert json.loads(out)["colourings"] == [[0, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0]]
        assert group_searches == [6]

    def test_transitive_listing_is_the_filtered_enumeration(self, capsys, tmp_path):
        # the orbit filter keeps what the per-colouring check keeps, in
        # enumeration order, and --limit cuts that list
        g = hypercube(4)
        graph = tmp_path / "q4.json"
        graph.write_text(json.dumps(graph_to_json(g)))
        table = symmetry._edge_table(g, symmetry._all_automorphisms(g, RunConfig()))
        want = [list(c) for c in iter_balanced_colourings(g)
                if symmetry._transitive_under(table, c.colours)]
        assert len(want) == 18
        for limit, count in (("0", 18), ("5", 5), ("40", 18)):
            code, out = run_cli(["colourings", str(graph), "--transitive", "--limit", limit],
                                capsys)
            assert code == 0 and json.loads(out)["colourings"] == want[:count]

    def test_filter_looks_the_check_up_when_it_runs(self, capsys, tmp_path, monkeypatch):
        # one call of the module's check per orbit of Q4's balanced colourings
        graph = tmp_path / "q4.json"
        graph.write_text(json.dumps(graph_to_json(hypercube(4))))
        calls = []
        check = symmetry._transitive_under

        def counted(perms, colours):
            calls.append(colours)
            return check(perms, colours)

        monkeypatch.setattr(symmetry, "_transitive_under", counted)
        code, out = run_cli(["colourings", str(graph), "--transitive"], capsys)
        assert code == 0 and json.loads(out)["count"] == 18
        assert len(calls) == 21

    def test_limit_stops_the_enumeration(self, capsys, tmp_path, monkeypatch):
        # without --transitive the listing streams the enumeration, so
        # --limit 2 draws two of Q4's 2970 balanced colourings and no more
        from gnorm import graphs
        graph = tmp_path / "q4.json"
        graph.write_text(json.dumps(graph_to_json(hypercube(4))))
        drawn = []
        enumerate_all = graphs.iter_balanced_colourings

        def counted(g, config):
            for c in enumerate_all(g, config):
                drawn.append(c)
                yield c

        monkeypatch.setattr(graphs, "iter_balanced_colourings", counted)
        code, out = run_cli(["colourings", str(graph), "--limit", "2"], capsys)
        assert code == 0 and json.loads(out)["colourings"] == [list(c) for c in drawn]
        assert len(drawn) == 2

    def test_a_walk_deeper_than_the_recursion_limit(self, capsys, tmp_path):
        # C_1000 has 1000 edges, one level of the walk each: more levels
        # than the default recursion limit allows frames
        graph = tmp_path / "c1000.json"
        graph.write_text(json.dumps(graph_to_json(cycle(1000))))
        code, out = run_cli(["colourings", str(graph), "--cap-edges", "5000"], capsys)
        assert code == 0 and json.loads(out)["count"] == 2

    def test_no_balanced_colouring_needs_no_search(self, capsys, tmp_path, group_searches):
        graph = tmp_path / "k23.json"
        graph.write_text(json.dumps(graph_to_json(complete_bipartite(2, 3))))
        code, out = run_cli(["colourings", str(graph), "--transitive"], capsys)
        assert code == 0 and json.loads(out)["count"] == 0
        assert group_searches == []


class TestFalsify:
    def test_seed_required(self, files, capsys):
        assert main(["falsify", files["c4"], files["mono4"]]) == 1

    def test_witness_found(self, files, capsys):
        code, out = run_cli(
            ["falsify", files["c4"], files["mono4"], "--seed", "5",
             "--trials", "100"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["witness"] is not None

    def test_byte_identical_given_seed(self, files, capsys):
        _, out1 = run_cli(
            ["falsify", files["c4"], files["mono4"], "--seed", "5",
             "--trials", "50"], capsys)
        _, out2 = run_cli(
            ["falsify", files["c4"], files["mono4"], "--seed", "5",
             "--trials", "50"], capsys)
        assert out1 == out2

    @pytest.mark.parametrize("flag", [["--trials", "-1"], ["--resolution", "0"]])
    def test_refuses_a_negative_budget(self, files, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["falsify", files["c4"], files["mono4"], "--seed", "5", *flag])
        assert exc.value.code == 1
        assert "must be at least" in capsys.readouterr().err

    def test_refuses_flags_it_never_reads(self, files, capsys):
        for flag in (["--cap-edges", "1"], ["--cap-vertices", "1"],
                     ["--cap-colourings", "1"], ["--cap-cycles", "1"],
                     ["--side-swap", "off"]):
            with pytest.raises(SystemExit) as exc:
                main(["falsify", files["c4"], files["mono4"], "--seed", "5", *flag])
            assert exc.value.code == 1
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_cap_assignments_caps_the_density_route(self, files, capsys):
        # trial 0's phase kernel on C4 is 3x3, so it needs 3^4 = 81 assignments
        args = ["falsify", files["c4"], files["alt4"], "--seed", "5", "--trials", "3"]
        assert main([*args, "--cap-assignments", "80"]) == 2
        assert "cap exceeded" in capsys.readouterr().err
        code, out = run_cli([*args, "--cap-assignments", "81"], capsys)
        assert code == 0 and json.loads(out)["trials_run"] == 3


# Golden values: three seeded `gnorm falsify` runs as the per-entry
# random.uniform draws gave them before the draws were read from
# getrandbits.  They rest on CPython's Mersenne Twister and on numpy's float
# arithmetic, so a change in either fails here by name.  Each is (graph,
# colouring, arguments, stdout as JSON).
_GOLDEN_FALSIFY = {
    # trial 0's phase kernel finds C4's monochromatic colouring unbalanced
    "triangle C4 1111": (cycle(4), (1, 1, 1, 1), ["--seed", "5", "--trials", "50"], {
        "kind": "triangle", "resolution": 2, "seed": 5, "trials": 50, "trials_run": 1,
        "witness": {
            "colours": [1, 1, 1, 1], "f": kernel_json(PHASE_3), "g": kernel_json(PHASE_3_CONJ),
            "kind": "triangle", "seed": 5, "trial": 0,
            "values": {"norm_f": 7.2470820882776e-05, "norm_g": 7.2470820882776e-05,
                       "norm_sum": 1.189207115002721}}}),
    # the violation search's 50 trials find nothing, so the random scan runs
    # and stops at its trial 4
    "decoration C4 1111": (cycle(4), (1, 1, 1, 1),
                           ["--kind", "decoration", "--seed", "1", "--trials", "50"], {
        "kind": "decoration", "resolution": 2, "seed": 1, "trials": 50,
        "witness": {
            "colours": [1, 1, 1, 1],
            "kernels": [kernel_json(v) for v in (
                [[[0.6449090049578146, -0.3093969757491075],
                  [-0.37904669363074395, -0.4394064343469024]],
                 [[-0.7497309190091199, -0.8253196005665722],
                  [0.10556267071407932, 0.08294733827201539]]],
                [[[0.8253802100877501, -0.24333310945895836],
                  [0.2064206649509035, 0.7112454687547811]],
                 [[0.2181580750399783, -0.620472975592314],
                  [0.21747631299169012, -0.8161128509101765]]],
                [[[0.43913190371407285, 0.46401801964594336],
                  [-0.3949304952310473, -0.45376045667910647]],
                 [[-0.34869548779727655, 0.7369413984712052],
                  [0.5884645678462024, 0.6334705648101235]]],
                [[[0.7559305702176198, -0.9385534248111669],
                  [0.9189248713709266, 0.04708732989588604]],
                 [[0.20685086073013714, -0.7511122923258813],
                  [-0.6068447637350765, 0.6852390939511162]]],
            )],
            "kind": "decoration-inequality",
            "lhs": 0.0005093517134766275,
            "log_margin": -4.8844676413929236,
            "rhs": 3.852302901398958e-06,
            "seed": 1,
            "trial": 4},
        "worst_margin": -4.8844676413929236}),
    # trial 0's structured candidates hold on this colouring; trial 5 does not
    "triangle P5 1100": (path(4), (1, 1, 0, 0), ["--seed", "1", "--trials", "50"], {
        "kind": "triangle", "resolution": 2, "seed": 1, "trials": 50, "trials_run": 6,
        "witness": {
            "colours": [1, 1, 0, 0],
            "f": kernel_json([[[0.5054718372796834, 0.8279613738322706],
                               [-0.9666508412803319, -0.6569042476461404]],
                              [[-0.6779197208967604, 0.6782291794064779],
                               [-0.6294969709337646, -0.055587035425010756]]]),
            "g": kernel_json([[[0.7906718941609425, -0.6275587349138092],
                               [-0.8857984404229813, -0.6199944713192276]],
                              [[-0.47532830748808585, -0.6133040090503832],
                               [-0.25638417456854623, 0.5942425565228622]]]),
            "kind": "triangle", "seed": 1, "trial": 5,
            "values": {"norm_f": 0.6575346274148072, "norm_g": 0.40461173953536994,
                       "norm_sum": 1.1387709348909987}}}),
}


@pytest.mark.parametrize("label", sorted(_GOLDEN_FALSIFY))
def test_falsify_equals_its_golden_output(label, tmp_path, capsys):
    g, colours, args, want = _GOLDEN_FALSIFY[label]
    graph, colouring = tmp_path / "g.json", tmp_path / "a.json"
    graph.write_text(json.dumps(graph_to_json(g)))
    colouring.write_text(json.dumps(colouring_to_json(EdgeColouring(colours))))
    code, out = run_cli(["falsify", str(graph), str(colouring), *args], capsys)
    # the printed text, so every float is compared by its round-trip digits
    assert code == 0
    assert out == json.dumps(want, indent=2, sort_keys=True) + "\n"


class TestTournament:
    def test_counts(self, capsys):
        code, out = run_cli(["tournament", "qr", "7", "--cycles"], capsys)
        blob = json.loads(out)
        assert blob["directed_3_cycles"] == 14
        assert blob["directed_4_cycles"] == 21

    def test_counts_past_64_vertices(self, capsys):
        # q = 67, d = 33: n*d*(d+1)/6 three-cycles and, being arc-transitive,
        # (3/4)*n*C(d+1, 3) four-cycles
        code, out = run_cli(["tournament", "qr", "67", "--cycles"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["directed_3_cycles"] == 67 * 33 * 34 // 6 == 12529
        assert blob["directed_4_cycles"] == 3 * 67 * math.comb(34, 3) // 4 == 300696

    def test_colouring_export(self, capsys):
        code, out = run_cli(["tournament", "clockwise", "3", "--colouring"],
                            capsys)
        blob = json.loads(out)
        assert len(blob["subdivision_colouring"]) == 6

    def test_bad_order(self, capsys):
        assert main(["tournament", "clockwise", "4"]) == 1

    def test_refuses_cap_and_side_swap_flags(self, capsys):
        # no tournament computation has a cap or a side-swap choice
        for flag in (["--cap-vertices", "1"], ["--side-swap", "off"]):
            with pytest.raises(SystemExit) as exc:
                main(["tournament", "qr", "7", "--cycles", *flag])
            assert exc.value.code == 1
            assert "unrecognized arguments" in capsys.readouterr().err


class TestReproduce:
    def test_single_row(self, capsys):
        code, out = run_cli(["reproduce", "--rows", "tournament-4cycles"], capsys)
        assert code == 0
        assert "PASS" in out and "tournament-4cycles" in out

    @pytest.mark.parametrize("rows", [["nope"], ["nope", "dual-path"]])
    def test_unknown_row_is_a_usage_error(self, capsys, rows):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--rows", *rows])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "invalid choice: 'nope'" in captured.err
        assert "tournament-4cycles" in captured.err and not captured.out

    def test_rows_without_ids_is_a_usage_error(self, capsys, monkeypatch):
        # an empty --rows names no row; it does not mean every row
        monkeypatch.setattr("gnorm.cli.run_all", lambda *a: pytest.fail("ran rows"))
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--rows"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert "expected at least one argument" in captured.err and not captured.out

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["out", "out-pretty"])
    def test_out_writes_the_rows(self, capsys, tmp_path, pretty):
        # the table is printed only with --pretty once --out is given
        target = tmp_path / "rows.json"
        code, out = run_cli(["reproduce", "--rows", "tournament-4cycles",
                             "--out", str(target), *pretty], capsys)
        assert code == 0
        assert ("PASS  tournament-4cycles" in out) == bool(pretty)
        rows = json.loads(target.read_text())["rows"]
        assert [(r["id"], r["ok"]) for r in rows] == [("tournament-4cycles", True)]


class TestOutFile:
    def test_writes_json(self, files, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["certify", "hypercube", "3", "--out", str(target)])
        assert code == 0
        blob = json.loads(target.read_text())
        assert blob["obstruction"] == "NotEulerian"

    @pytest.mark.parametrize("args", [
        ["certify", "hypercube", "3"], ["tournament", "clockwise", "5", "--cycles"],
        ["check", "c6"], ["colourings", "c6"],
    ], ids=["certify", "tournament", "check", "colourings"])
    def test_out_and_pretty_combine(self, files, capsys, tmp_path, args):
        # --out writes the JSON and --pretty prints the summary, together
        args = [files.get(a, a) for a in args]
        _, plain = run_cli(args, capsys)
        target = tmp_path / "report.json"
        code, out = run_cli([*args, "--out", str(target), "--pretty"], capsys)
        assert code == 0
        assert json.loads(target.read_text()) == json.loads(plain)
        _, pretty = run_cli([*args, "--pretty"], capsys)
        assert out == pretty and out.strip()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gnorm.cli", "certify", "hypercube", "3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["obstruction"] == "NotEulerian"


class TestHypercubeCheck:
    def test_q4_beta_report(self, tmp_path, capsys):
        from gnorm.constructions import hypercube, hypercube_beta
        g = hypercube(4)
        gp = tmp_path / "q4.json"
        cp = tmp_path / "beta4.json"
        gp.write_text(json.dumps(graph_to_json(g)))
        cp.write_text(json.dumps(colouring_to_json(hypercube_beta(4))))
        code, out = run_cli(["check", str(gp), str(cp)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["balanced"] and report["transitive"]
        assert report["four_cycle_profile"] == {"c1": 8, "c2": 0, "c3": 16, "c4": 0}


class TestCapExitCode:
    def test_decisive_cap_returns_2(self, files, capsys):
        code, out = run_cli(
            ["certify", "graph", files["c6"], "--cap-edges", "2"], capsys)
        assert code == 2
        blob = json.loads(out)
        assert blob["cap_hit"] and blob["verdict"] == "NoObstructionFound"

    def test_hypercube_profiles_keep_the_cycle_cap(self, capsys):
        # the Q6 profile witness enumerates 240 four-cycles under --cap-cycles
        assert main(["certify", "hypercube", "6", "--cap-cycles", "10"]) == 2
        assert "cap exceeded: cycle enumeration" in capsys.readouterr().err


_POSITIONAL = {"check": ["g.json"], "certify": ["graph", "g.json"],
               "colourings": ["g.json"], "density": ["g.json", "a.json", "k.json"],
               "smax": ["g.json", "k.json"], "reproduce": []}
# the cap flags each command takes: one for each cap that something it runs reads
_KEPT_CAPS = {
    "check": ("--cap-vertices", "--cap-cycles"),
    "certify": ("--cap-edges", "--cap-vertices", "--cap-cycles"),
    "colourings": ("--cap-edges", "--cap-vertices"),
    "density": ("--cap-assignments",),
    "smax": ("--cap-assignments", "--cap-colourings"),
    "reproduce": ("--cap-edges", "--cap-assignments", "--cap-vertices", "--cap-cycles"),
}
# every integer count or cap option: (subcommand, its positional arguments,
# flag, whether 0 is accepted)
_COUNT_FLAGS = [
    *((cmd, _POSITIONAL[cmd], flag, True) for cmd, flags in _KEPT_CAPS.items()
      for flag in flags),
    ("colourings", ["g.json"], "--limit", True),
    ("falsify", ["g.json", "a.json"], "--trials", True),
    ("falsify", ["g.json", "a.json"], "--resolution", False),
    ("falsify", ["g.json", "a.json"], "--cap-assignments", True),
]


class TestIntegerFlags:
    @pytest.mark.parametrize("cmd, pos, flag, zero_ok", _COUNT_FLAGS,
                             ids=[f"{c}{f}" for c, _, f, _ in _COUNT_FLAGS])
    def test_negative_is_a_usage_error(self, capsys, cmd, pos, flag, zero_ok):
        from gnorm.cli import build_parser
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, *pos, flag, "-1"])
        assert exc.value.code == 1
        assert "must be at least" in capsys.readouterr().err
        if zero_ok:
            args = build_parser().parse_args([cmd, *pos, flag, "0"])
            assert getattr(args, flag[2:].replace("-", "_")) == 0
        else:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([cmd, *pos, flag, "0"])
            assert exc.value.code == 1

    def test_the_list_covers_every_integer_option(self):
        # an option with a type is an integer option; --seed is the only one
        # that may be negative
        import argparse
        from gnorm.cli import build_parser
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        typed = {(cmd, opt) for cmd, parser in sub.choices.items()
                 for action in parser._actions if action.type is not None
                 for opt in action.option_strings}
        assert typed == {(c, f) for c, _, f, _ in _COUNT_FLAGS} | {("falsify", "--seed")}


# settings that nothing a command runs reads: the command refuses each
_REFUSED = [
    *(("density", flag) for flag in ("--cap-edges", "--cap-vertices", "--cap-colourings",
                                     "--cap-cycles", "--side-swap")),
    *(("smax", flag) for flag in ("--cap-edges", "--cap-vertices", "--cap-cycles",
                                  "--side-swap")),
    *(("check", flag) for flag in ("--cap-edges", "--cap-assignments", "--cap-colourings")),
    *(("colourings", flag) for flag in ("--cap-assignments", "--cap-colourings",
                                        "--cap-cycles")),
    *(("certify", flag) for flag in ("--cap-assignments", "--cap-colourings")),
    ("reproduce", "--cap-colourings"),
]

# (command line with a kept cap at 0, the sign that the cap stopped something):
# exit 2 or a "skipped (...)" note
_KEPT_AT_ZERO = [
    (["check", "c4", "alt4", "--cap-vertices", "0"], "skipped"),
    (["check", "c4", "alt4", "--cap-cycles", "0"], "skipped"),
    (["certify", "graph", "c6", "--cap-edges", "0"], 2),
    (["certify", "graph", "c6", "--cap-vertices", "0"], 2),
    (["certify", "graph", "c6", "--cap-cycles", "0"], 2),
    (["colourings", "c6", "--cap-edges", "0"], 2),
    (["colourings", "c6", "--transitive", "--cap-vertices", "0"], 2),
    (["density", "c4", "alt4", "sign", "--cap-assignments", "0"], 2),
    (["smax", "c4", "sign", "--cap-assignments", "0"], 2),
    (["smax", "c4", "sign", "--cap-colourings", "0"], 2),
]


class TestSettingsPerCommand:
    @pytest.mark.parametrize("cmd, flag", _REFUSED, ids=[f"{c}{f}" for c, f in _REFUSED])
    def test_a_setting_the_command_never_reads_is_refused(self, capsys, cmd, flag):
        value = "off" if flag == "--side-swap" else "0"
        with pytest.raises(SystemExit) as exc:
            main([cmd, *_POSITIONAL[cmd], flag, value])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--cap-vertices", "0"), ("--side-swap", "off")])
    def test_colourings_refuses_the_transitive_settings_without_it(self, files, capsys,
                                                                   flag, value):
        # only the transitive filter searches the group that they set
        assert main(["colourings", files["c6"], flag, value]) == 1
        captured = capsys.readouterr()
        assert "--transitive" in captured.err and not captured.out

    @pytest.mark.parametrize("args, sign", _KEPT_AT_ZERO,
                             ids=[" ".join(a[:1] + a[-2:-1]) for a, _ in _KEPT_AT_ZERO])
    def test_each_kept_cap_at_zero_changes_the_outcome(self, files, capsys, args, sign):
        args = [files.get(a, a) for a in args]
        base = run_cli(args[:-2], capsys)
        code, out = run_cli(args, capsys)
        assert (code, out) != base
        if sign == 2:
            assert code == 2
        else:
            assert code == 0 and sign in out and sign not in base[1]


class TestHintFlag:
    def test_hint_unlocks_arithmetic(self, capsys, tmp_path):
        from gnorm.constructions import bipartite_kneser
        gp = tmp_path / "h73.json"
        gp.write_text(json.dumps(graph_to_json(bipartite_kneser(7, 3))))
        # the hint is checked by an isomorphism test on all 70 vertices
        code, out = run_cli(
            ["certify", "graph", str(gp), "--hint", "kneser:7:3",
             "--cap-vertices", "80"], capsys)
        assert code == 0
        assert json.loads(out)["obstruction"] == "IntegralityFailure"
        code, out = run_cli(
            ["certify", "graph", str(gp), "--hint", "kneser:7:3"], capsys)
        assert json.loads(out)["obstruction"] != "IntegralityFailure"

    @pytest.mark.parametrize("hint", ["kneser:6:2:99", "inclusion:6:4:2:7", "kneser:6",
                                      "nope:1:2", "kneser:6:two", ""])
    def test_malformed_hint_is_a_usage_error(self, capsys, tmp_path, hint):
        # kneser:6:2:99 once ran as kneser:6:2 and exited 0; kneser:6,
        # nope:1:2 and the empty hint ended at H(6,2)'s capped balanced
        # enumeration, exit 2
        from gnorm.constructions import bipartite_kneser
        gp = tmp_path / "h62.json"
        gp.write_text(json.dumps(graph_to_json(bipartite_kneser(6, 2))))
        assert main(["certify", "graph", str(gp), "--hint", hint]) == 1
        captured = capsys.readouterr()
        assert "hint" in captured.err and not captured.out


class TestSideSwapFlag:
    @pytest.mark.parametrize("flags, modes", [(["--side-swap", "off"], [False]),
                                              ([], [True])])
    def test_check_searches_the_configured_group_once(self, files, capsys, monkeypatch,
                                                      flags, modes):
        # the colouring verdicts read the one group that the configured mode
        # gives, whatever the mode
        seen = []
        search = symmetry._all_automorphisms

        def spy(g, config):
            seen.append(config.side_swap)
            return search(g, config)

        monkeypatch.setattr(symmetry, "_all_automorphisms", spy)
        code, out = run_cli(["check", files["c4"], files["alt4"], *flags], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["self_conjugate"] is True and report["transitive"] is True
        assert seen == modes

    def test_strict_mode_changes_group(self, files, capsys):
        _, out_on = run_cli(["check", files["c4"], "--side-swap", "on"], capsys)
        _, out_off = run_cli(["check", files["c4"], "--side-swap", "off"], capsys)
        assert json.loads(out_on)["automorphism_group_order"] == 8
        assert json.loads(out_off)["automorphism_group_order"] == 4

    def test_family_certificate_records_strict_mode(self, capsys):
        _, out = run_cli(["certify", "hypercube", "6", "--side-swap", "off"], capsys)
        assert json.loads(out)["automorphism_mode"] == {"side_swap": False}


class TestDecorationFalsify:
    def test_witness_on_odd_colouring(self, files, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(colouring_to_json(EdgeColouring((1, 1, 1, 0)))))
        code, out = run_cli(
            ["falsify", files["c4"], str(bad), "--kind", "decoration",
             "--seed", "5", "--trials", "50"], capsys)
        assert code == 0
        blob = json.loads(out)
        assert blob["witness"]["kind"] == "decoration-inequality"

    def test_none_on_alternating(self, files, capsys):
        code, out = run_cli(
            ["falsify", files["c4"], files["alt4"], "--kind", "decoration",
             "--seed", "5", "--trials", "30"], capsys)
        blob = json.loads(out)
        assert blob["witness"] is None and blob["worst_margin"] > 0

    def test_no_trials_write_a_null_margin(self, files, capsys):
        # the worst margin of no trials is inf, which JSON cannot hold
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        code, out = run_cli(
            ["falsify", files["c4"], files["alt4"], "--kind", "decoration",
             "--seed", "1", "--trials", "0"], capsys)
        assert code == 0
        blob = json.loads(out, parse_constant=refuse)
        assert blob["worst_margin"] is None and blob["witness"] is None
