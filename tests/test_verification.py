"""The verification table itself: sensitivity, crash capture, ordering,
and golden values of every row."""

import copy
import json
import os
from dataclasses import replace

import pytest

import gnorm.verification as V
from gnorm import density, falsify
from gnorm.config import RunConfig
from gnorm.errors import InvalidParameter

from conftest import GOLDEN, PHASE_3, PHASE_3_CONJ, kernel_json, regenerate


def test_rows_have_unique_ids_and_budgets():
    ids = [r.rid for r in V.ROWS]
    assert len(ids) == len(set(ids)) == 11
    assert all(r.budget_s > 0 for r in V.ROWS)


@pytest.mark.parametrize("rid, length", [("tournament-4cycles", 4), ("tournament-3cycles", 3)])
def test_row_fails_on_corrupted_formula(monkeypatch, rid, length):
    # a cycle counter broken for one cycle length must flip that row to FAIL
    real = V.count_directed_cycles

    def corrupted(t, m):
        return real(t, m) + (1 if m == length else 0)

    monkeypatch.setattr(V, "count_directed_cycles", corrupted)
    row = next(r for r in V.ROWS if r.rid == rid)
    assert not V.run_row(row)["ok"]


# one targeted corruption per row besides the tournament rows above: the row
# id, then the module, the name and a function of the real object that gives
# the corrupted one
_CORRUPTIONS = {
    # the balanced scan then reads c2 = c1 + 8, not c1 = c2 + 8
    "hypercube-identities": (V, "_class_counts",
                             lambda real: lambda m, c: real(m, c)[:, [1, 0, 2, 3]]),
    "certificates": (V, "certify_not_norming",
                     lambda real: lambda *args: replace(real(*args), surviving=[])),
    "kneser-arithmetic": (V, "_class_a_case",
                          lambda real: lambda k, r: None if (k, r) == (5, 2) else real(k, r)),
    "dual-path": (density, "_evaluate_eliminate",
                  lambda real: lambda *args: real(*args) * (1 + 1e-9)),
    # one step too coarse: C4's monochromatic colouring reads 1
    "trig-closed-forms": (V, "phase_kernel", lambda real: lambda p: real(p - 1)),
    "second-order": (V, "second_order_expansion",
                     lambda real: lambda *args: replace(real(*args), c2=real(*args).c2 + 0.01)),
    # a witness on every pair, so on the alternating colouring too; a scaling
    # law that never reports leaves the row passing, as the triangle check
    # still finds the monochromatic witness
    "falsifier": (falsify, "_triangle",
                  lambda real: lambda *args: {"norm_sum": 1.0, "norm_f": 0.0, "norm_g": 0.0}),
    "decoration-inequality": (falsify, "_mismatch_direction",
                              lambda real: lambda *args: None),
    "subdivision-bridge": (V, "kappa_alternating",
                           lambda real: lambda g, a, length, config:
                           real(g, a, length, config) + (length == 8)),
}


def test_every_row_has_a_corruption_that_fails_it():
    rows = {r.rid for r in V.ROWS}
    assert rows == {*_CORRUPTIONS, "tournament-3cycles", "tournament-4cycles"}


@pytest.mark.parametrize("rid", sorted(_CORRUPTIONS))
def test_row_fails_on_its_targeted_corruption(monkeypatch, rid):
    row = next(r for r in V.ROWS if r.rid == rid)
    assert V.run_row(row)["ok"]
    module, name, corrupt = _CORRUPTIONS[rid]
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    result = V.run_row(row)
    # the row reports the failure itself rather than crashing
    assert not result["ok"] and "error" not in result, result


def test_score_identity_catches_a_counter_wrong_off_the_regular_tournaments(monkeypatch):
    # right on every regular tournament, wrong on 5-tournaments with a source
    real = V.count_directed_cycles

    def corrupted(t, m):
        source = any(len(s) == t.n - 1 for s in t.out_neighbours)
        return real(t, m) + (1 if m == 3 and t.n == 5 and source else 0)

    monkeypatch.setattr(V, "count_directed_cycles", corrupted)
    result = V.run_row(next(r for r in V.ROWS if r.rid == "tournament-3cycles"))
    assert not result["ok"] and result["n"] == 5


def test_crashed_row_is_reported_not_raised(monkeypatch):
    def boom(config):
        raise RuntimeError("synthetic failure")

    row = V.Row("synthetic", "always crashes", 10, boom)
    result = V.run_row(row)
    assert not result["ok"]
    assert "synthetic failure" in result["error"]


def test_run_all_preserves_declared_order():
    results = V.run_all(RunConfig(), ["kneser-arithmetic", "tournament-4cycles"])
    assert [r["id"] for r in results] == ["tournament-4cycles", "kneser-arithmetic"]


def test_run_all_runs_the_rows_one_after_another_in_this_process(monkeypatch):
    # asked out of table order, the rows run and report in table order, each
    # finished before the next starts, in the calling process
    calls = []

    def recording(row):
        def run(config):
            calls.append(("start", row.rid, os.getpid()))
            result = row.run(config)
            calls.append(("end", row.rid, os.getpid()))
            return result
        return V.Row(row.rid, row.title, row.budget_s, run)

    monkeypatch.setattr(V, "ROWS", [recording(r) for r in V.ROWS])
    results = V.run_all(RunConfig(), ["subdivision-bridge", "decoration-inequality"])
    assert [r["id"] for r in results] == ["decoration-inequality", "subdivision-bridge"]
    assert all(r["ok"] for r in results)
    pid = os.getpid()
    assert calls == [("start", "decoration-inequality", pid), ("end", "decoration-inequality", pid),
                     ("start", "subdivision-bridge", pid), ("end", "subdivision-bridge", pid)]


def test_three_cycle_row_reports_every_tournament_it_checked():
    # 2, 24 and 2640 regular tournaments; 2^C(n,2) labelled ones for the identity
    result = V.run_row(next(r for r in V.ROWS if r.rid == "tournament-3cycles"))
    assert result["ok"]
    assert result["tournaments"] == {3: 2, 5: 24, 7: 2640}
    assert result["score_identity"] == {3: 8, 4: 64, 5: 1024}


@pytest.mark.parametrize("rows", [["nope"], ["nope", "dual-path"]])
def test_run_all_rejects_unknown_row_ids(monkeypatch, rows):
    ran = []
    monkeypatch.setattr(V, "run_row", lambda row, config=None: ran.append(row.rid))
    with pytest.raises(InvalidParameter,
                       match="unknown row id.*nope.*valid ids: tournament-3cycles"):
        V.run_all(RunConfig(), rows)
    assert ran == []


def test_run_all_with_no_ids_runs_nothing():
    assert V.run_all(RunConfig(), []) == []


def test_budget_violation_fails_row(monkeypatch):
    import time

    def slow(config):
        time.sleep(0.05)
        return {"ok": True}

    row = V.Row("slow", "sleeps past its budget", 0.01, slow)
    result = V.run_row(row)
    assert not result["ok"] and not result["within_budget"]


# -- golden values ---------------------------------------------------------------------

# The falsifier rows' results without elapsed_s and within_budget, as the
# per-entry random.uniform draws gave them before the draws were read from
# getrandbits.  They rest on CPython's Mersenne Twister and on numpy's float
# arithmetic, so a change in either fails here by name.
_GOLDEN_ROWS = {
    "falsifier": {
        "alternating_trials": 10000,
        "id": "falsifier",
        "monochromatic_witness": {
            "colours": [1, 1, 1, 1],
            "f": kernel_json(PHASE_3),
            "g": kernel_json(PHASE_3_CONJ),
            "kind": "triangle",
            "seed": 1234,
            "trial": 0,
            "values": {"norm_f": 7.2470820882776e-05, "norm_g": 7.2470820882776e-05,
                       "norm_sum": 1.189207115002721},
        },
        "ok": True,
        "title": "triangle/scaling falsifier soundness",
    },
    "decoration-inequality": {
        "id": "decoration-inequality",
        "ok": True,
        "random_scan_worst_margin": 0.3527391076068378,
        "title": "decoration inequality scans",
        "uniform_margin": 0.0,
        "violation": {
            "colours": [1, 1, 1, 0],
            "kernels": [kernel_json(v) for v in [
                [[[-0.8911183107907865, -0.18601613306857545],
                  [-0.48770263313764395, -0.7608346808687849]],
                 [[-0.8645732984627723, 0.4753825588638785],
                  [0.2996803953217775, 0.7406582300104363]]],
                [[[-0.8262602906282712, 0.30975945852564446],
                  [-0.42284461297512865, -0.265059089274565]],
                 [[-0.799715278300257, 0.9711581504580984],
                  [0.3645384154842928, 1.2364338216046562]]],
            ] + [
                [[[-0.8586893007095289, 0.061871662728534504],
                  [-0.4552736230563863, -0.512946885071675]],
                 [[-0.8321442883815147, 0.7232703546609884],
                  [0.33210940540303513, 0.9885460258075462]]],
            ] * 2],
            "kind": "decoration-inequality",
            "lhs": 0.00032747012797588483,
            "log_margin": -0.5456323199235715,
            "rhs": 0.00018976083549517668,
            "seed": 55,
            "trial": 0,
        },
    },
}


@pytest.mark.parametrize("rid", sorted(_GOLDEN_ROWS))
def test_falsifier_row_equals_its_golden_values(rid):
    row = next(r for r in V.ROWS if r.rid == rid)
    result = V.run_row(row)
    del result["elapsed_s"], result["within_budget"]
    # JSON text, so every float is compared by its round-trip digits, the
    # sign of a zero included
    assert json.dumps(result, sort_keys=True) == json.dumps(_GOLDEN_ROWS[rid], sort_keys=True)


# The other nine rows, written by tests/golden/regenerate.py.  Their floats
# (the dual-path, trig and second-order errors and fitted constants) come
# from numpy reductions whose last bits may differ between builds, so they
# may move by _FLOAT_TOL; every other value must match exactly.
_FLOAT_TOL = 1e-9


def golden_mismatches(got, want, path: str = "$") -> list[str]:
    """The JSON paths at which ``got`` differs from ``want``: a float by more
    than ``_FLOAT_TOL``, any other value, a JSON type, a list length or a
    key set at all."""
    if type(got) is not type(want):
        return [path]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [path]
        return [m for k in want for m in golden_mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [path]
        return [m for i, pair in enumerate(zip(got, want))
                for m in golden_mismatches(*pair, f"{path}[{i}]")]
    if isinstance(want, float):
        return [] if abs(got - want) <= _FLOAT_TOL else [path]
    return [] if got == want else [path]


def _golden_rows() -> list:
    return json.loads((GOLDEN / "reproduce.json").read_text())


def test_unpinned_rows_match_their_golden_file():
    want = _golden_rows()
    assert [r["id"] for r in want] == [r.rid for r in V.ROWS if r.rid not in _GOLDEN_ROWS]
    assert golden_mismatches(json.loads(regenerate().reproduce_text()), want) == []


def _leaves(value, path=()):
    """The key path of every leaf, an empty list or dict counting as one."""
    if isinstance(value, (dict, list)) and value:
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _leaves(child, path + (key,))
    else:
        yield path


def _changed(leaf):
    """One change of a leaf that its comparison must catch."""
    if isinstance(leaf, bool):
        return not leaf
    if isinstance(leaf, float):
        return leaf + 10 * _FLOAT_TOL
    if isinstance(leaf, int):
        return leaf + 1
    if isinstance(leaf, str):
        return leaf + "x"
    return [0] if leaf == [] else {"x": 0} if leaf == {} else 0


def test_a_one_field_mutation_of_the_golden_rows_fails():
    want = _golden_rows()
    leaves = list(_leaves(want))
    assert len(leaves) > 50
    for path in leaves:
        got = copy.deepcopy(want)
        parent = got
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = _changed(parent[path[-1]])
        assert golden_mismatches(got, want), path
    # a float within the tolerance is the same value
    got = copy.deepcopy(want)
    got[[r["id"] for r in want].index("dual-path")]["worst_relative_error"] += _FLOAT_TOL / 2
    assert golden_mismatches(got, want) == []
