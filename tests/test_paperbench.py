"""The paper-claim artifact (``benchmarks/paperbench.py``) across runs.

Partial benchmark selections write into one ``BENCH_paperbench.json``;
each run's claim tables must merge with the earlier runs' like the wall
times do, so the claim totals describe every table recorded, not only
the last run's.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import paperbench  # noqa: E402


@pytest.fixture
def fresh_run(monkeypatch):
    """Start a new in-process benchmark run (nothing collected)."""

    def start():
        monkeypatch.setattr(paperbench, "_COLLECTED", {
            "rows": [], "claims": {}, "wall_s": {}, "values": {}})

    start()
    yield start


def rows(ok: int, out: int) -> list:
    return ([paperbench.row(f"in {i}", "1x", 1.0, 0.5, 1.5)
             for i in range(ok)]
            + [paperbench.row(f"out {i}", "1x", 9.0, 0.5, 1.5)
               for i in range(out)])


def test_partial_runs_sum_their_claims(tmp_path, fresh_run):
    path = tmp_path / "BENCH_paperbench.json"
    paperbench.report("E1 first table", rows(ok=3, out=1))
    paperbench.record_wall("first", 1.0)
    paperbench.finalize(str(path))

    fresh_run()
    paperbench.report("E2 second table", rows(ok=2, out=0))
    paperbench.report("E2b third table", rows(ok=4, out=2))
    paperbench.record_wall("second", 2.0)
    paperbench.finalize(str(path))

    merged = json.loads(path.read_text())
    assert merged["claims_total"] == 4 + 2 + 6
    assert merged["claims_ok"] == 3 + 2 + 4
    assert merged["claims_out"] == 1 + 0 + 2
    assert merged["bench.first.s"] == 1.0
    assert merged["bench.second.s"] == 2.0


def test_rerun_replaces_its_own_table(tmp_path, fresh_run):
    path = tmp_path / "BENCH_paperbench.json"
    paperbench.report("E1 table", rows(ok=3, out=1))
    paperbench.report("E2 table", rows(ok=2, out=0))
    paperbench.finalize(str(path))

    fresh_run()
    paperbench.report("E1 table", rows(ok=4, out=0))
    paperbench.finalize(str(path))

    merged = json.loads(path.read_text())
    assert merged["claims_total"] == 4 + 2
    assert merged["claims_ok"] == 4 + 2
    assert merged["claims_out"] == 0
