"""Golden TILOS sizing decisions on the cpu16 flows of every style.

``tests/golden/sizing_cpu16.json`` pins, per style at seed 1, a digest
of the final instance -> cell map after the ``size`` stage plus the
``sizing.tilos.trials`` and ``sizing.tilos.moves`` counts.  The values
were recorded from the sizer that evaluated each trial with its own
single-row propagation, so they pin that batching a move's trials
changed no decision.

Regenerate (only for an intentional modelling change)::

    PYTHONPATH=src python -c "import json, tests.test_sizing_golden as t; \\
        print(json.dumps(t.record_all(), indent=2, sort_keys=True))"
"""

import hashlib
import json
import pathlib

import pytest

from repro import obs
from repro.flows import (
    AsicFlowOptions,
    CustomFlowOptions,
    StructuredFlowOptions,
)
from repro.flows.engine import FlowEngine
from repro.flows.registry import backend_for_options

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "sizing_cpu16.json"

CASES = {
    "asic_cpu16": AsicFlowOptions(workload="cpu", bits=16, seed=1),
    "custom_cpu_macro16": CustomFlowOptions(workload="cpu_macro", bits=16,
                                            seed=1),
    "structured_cpu16": StructuredFlowOptions(workload="cpu", bits=16,
                                              seed=1),
}


def _counter(name: str) -> int:
    for metric in obs.get_metrics().all_metrics():
        if metric.name == name:
            return int(sum(metric.series().values()))
    return 0


def record(name: str) -> dict:
    """Cell-map digest and trial/move counts of one case's size stage."""
    options = CASES[name]
    backend = backend_for_options(options)
    was_enabled = obs.enabled()
    obs.enable()
    try:
        ctx = FlowEngine(backend.graph).run(
            options, backend.default_tech, until="size")
        trials = _counter("sizing.tilos.trials")
    finally:
        if not was_enabled:
            obs.disable()
        obs.reset()
    cells = {inst.name: inst.cell_name
             for inst in ctx["module"].iter_instances()}
    text = json.dumps(cells, sort_keys=True)
    return {
        "cells_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "trials": trials,
        "moves": int(ctx.notes["sizing_moves"]),
    }


def record_all() -> dict:
    return {name: record(name) for name in sorted(CASES)}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sizing_matches_golden(name):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert record(name) == golden[name]
