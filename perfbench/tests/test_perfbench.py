"""Tests of the benchmark itself.

    python -m pytest perfbench/tests -q

The last test re-runs every workload's reference operation under two
hash seeds and takes about a minute.
"""

import dataclasses
import os
import subprocess
import sys

import pytest

import layers
import workloads
from digest import canonical_flow, digest
from spans import Recorder, Span, install, self_times, uninstall


def _span(name, start, end, parent=None, op=1, **attrs):
    return Span(name, start, end, parent, op, attrs)


def test_self_time_subtracts_children_once():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),    # overlaps a: union is 1..6
        _span("a.x", 1.5, 2.0, parent=1),
        _span("late", 9.0, 12.0, parent=0),  # clipped to the root's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.5, 3.0, 0.5, 3.0])


def test_self_times_of_a_nested_tree_sum_to_the_root():
    spans = [_span("root", 0.0, 8.0), _span("a", 1.0, 5.0, parent=0),
             _span("b", 2.0, 3.0, parent=1), _span("c", 5.5, 7.0, parent=0)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_recorder_nests_and_tags_operations():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    rec.op = 7
    with rec.span("outer"):
        with rec.span("inner", k=1):
            pass
    outer, inner = rec.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert (outer.op, inner.op, inner.attrs) == (7, 7, {"k": 1})
    assert (outer.duration, inner.duration) == (3.0, 1.0)


def test_install_wraps_and_uninstall_restores():
    from repro.physical import placement

    original = placement.__dict__["anneal"]
    rec = Recorder()
    undo = install(rec, [("repro.physical.placement", "anneal",
                          "optimize.anneal", layers._anneal)])
    try:
        assert placement.anneal is not original

        class Walk:
            def propose(self, rng):
                return None

            def apply(self, move):
                return -1.0

            def revert(self, move):
                raise AssertionError("downhill moves are kept")

        import random
        placement.anneal(Walk(), random.Random(0), 5, 1.0)
    finally:
        uninstall(undo)
    assert placement.__dict__["anneal"] is original
    assert [(s.name, s.attrs) for s in rec.spans] == [
        ("optimize.anneal", {"steps": 5, "accepted": 5})]


def test_stage_times_and_overhead_account_for_flow_wall():
    spans = [
        _span("flows.engine.flow", 0.0, 10.0, style="asic", cache_hits=0,
              stages={"map": 1.0, "place": 3.0, "size": 5.5}),
        _span("flows.engine.flow", 10.0, 14.0, style="custom",
              cache_hits=0, stages={"map": 0.5, "place": 3.0}),
    ]
    out = layers.layer_metrics(spans, {}, {1}, {1}, {}, 0.0, 0.0, 0.7)
    for style in ("asic", "custom"):
        staged = sum(out[f"stage.{style}.{s}_s"] for s in layers.STAGES)
        assert staged + 0.5 == pytest.approx(out[f"flow.{style}_s"])
    assert out["flows.engine.overhead_s"] == pytest.approx(0.5)
    assert out["flow.structured_s"] == 0.0
    assert out["flows.cache.hits"] == 0.0


@pytest.fixture(scope="module")
def small_gap():
    study = workloads.GapStudy(seed=1, scratch="unused", bits=4)
    study.setup()
    return study


def test_digest_ignores_run_fields_and_catches_a_tampered_result(small_gap):
    from repro.flows import registry

    options = small_gap.points[0]
    result = registry.run_backend_flow(
        registry.backend_for_options(options), options)
    good = digest(canonical_flow(result))

    slower = dataclasses.replace(
        result, stage_records=[dataclasses.replace(s, wall_s=s.wall_s + 1)
                               for s in result.stage_records])
    assert digest(canonical_flow(slower)) == good

    tampered = dataclasses.replace(
        result, quoted_frequency_mhz=result.quoted_frequency_mhz * 1.001)
    assert digest(canonical_flow(tampered)) != good


def test_zero_hit_assert_trips_when_the_reset_is_skipped(small_gap,
                                                          monkeypatch):
    first = small_gap.run_op()
    assert small_gap.run_op() == first  # isolated: no hits, same outputs
    monkeypatch.setattr(workloads, "isolate", lambda: None)
    with pytest.raises(workloads.CacheLeak):
        small_gap.run_op()


def test_reference_digests_hold_under_two_hash_seeds():
    run = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "run.py")
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, run, "--reference", "--hash-seed", hash_seed],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
