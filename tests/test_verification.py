"""The verification table itself: sensitivity, crash capture, ordering."""

import pytest

import gnorm.verification as V
from gnorm.config import RunConfig
from gnorm.errors import OutOfRange


def test_rows_have_unique_ids_and_budgets():
    ids = [r.rid for r in V.ROWS]
    assert len(ids) == len(set(ids)) == 11
    assert all(r.budget_s > 0 for r in V.ROWS)


def test_row_fails_on_corrupted_formula(monkeypatch):
    # a deliberately broken cycle counter must flip the row to FAIL
    real = V.count_directed_cycles

    def corrupted(t, m):
        return real(t, m) + (1 if m == 4 else 0)

    monkeypatch.setattr(V, "count_directed_cycles", corrupted)
    row = next(r for r in V.ROWS if r.rid == "tournament-4cycles")
    assert not V.run_row(row)["ok"]


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


def test_threaded_run_all_keeps_table_order_when_the_first_row_is_slower():
    # two workers: the quick row finishes first, and still comes second
    results = V.run_all(RunConfig(threads=2), ["subdivision-bridge", "decoration-inequality"])
    assert [r["id"] for r in results] == ["decoration-inequality", "subdivision-bridge"]
    assert results[0]["elapsed_s"] > results[1]["elapsed_s"]
    assert all(r["ok"] for r in results)


@pytest.mark.parametrize("rows", [["nope"], ["nope", "dual-path"]])
def test_run_all_rejects_unknown_row_ids(monkeypatch, rows):
    ran = []
    monkeypatch.setattr(V, "run_row", lambda row, config=None: ran.append(row.rid))
    with pytest.raises(OutOfRange, match="unknown row id.*nope.*valid ids: tournament-3cycles"):
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
