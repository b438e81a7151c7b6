"""The annealers' cached net-length cost against its oracle and goldens.

:class:`~repro.physical.placement.NetLengths` replaces per-move
recomputation with a per-net cache; ``Placement.net_length_um`` stays
the oracle every cached length must equal exactly.  The digests in
``tests/golden/placement_cpu16.json`` were recorded from the annealers
that recomputed every touched net before and after each move, so they
pin that the cache changed no accept/reject decision.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro.cells import rich_asic_library
from repro.datapath.cpu import cpu_execute_stage
from repro.flows import (
    AsicFlowOptions,
    CustomFlowOptions,
    StructuredFlowOptions,
)
from repro.flows.engine import FlowEngine
from repro.flows.registry import backend_for_options
from repro.physical import SlotAssignment, assign_slots, fabric_for, place
from repro.physical.fabric import _SlotMoves
from repro.physical.placement import _PositionSwaps
from repro.sta.sequential import register_boundaries
from repro.tech import CMOS250_ASIC

RICH = rich_asic_library(CMOS250_ASIC)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "placement_cpu16.json")
    .read_text()
)

CASES = {
    "asic_cpu16": AsicFlowOptions(workload="cpu", bits=16, seed=1),
    "custom_cpu_macro16": CustomFlowOptions(workload="cpu_macro", bits=16,
                                            seed=1),
    "structured_cpu16": StructuredFlowOptions(workload="cpu", bits=16,
                                              seed=1),
}


def positions_digest(placement) -> str:
    payload = {name: [p.x.hex(), p.y.hex()]
               for name, p in placement.positions.items()}
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_annealed_positions_match_golden(name):
    options = CASES[name]
    backend = backend_for_options(options)
    ctx = FlowEngine(backend.graph).run(options, backend.default_tech,
                                        until="place")
    placement = ctx["placement"]
    assert positions_digest(placement) == GOLDEN[name]["positions_sha256"]
    assert (placement.total_wirelength_um().hex()
            == GOLDEN[name]["wirelength_um"])
    if isinstance(placement, SlotAssignment):
        fabric = placement.fabric
        assert len(set(placement.slot_of.values())) == len(placement.slot_of)
        for inst, slot in placement.slot_of.items():
            assert placement.positions[inst] == fabric.slot_center(*slot)


@pytest.fixture(scope="module")
def cpu16():
    return register_boundaries(
        cpu_execute_stage(16, RICH, fast_adder=False), RICH)


def row_problem(module):
    placement = place(module, RICH, seed=1, iterations=0)
    swaps = _PositionSwaps(placement)
    return placement, swaps, swaps.cost.write_back


def fabric_problem(module):
    fabric = fabric_for(module, RICH)
    assignment = assign_slots(module, RICH, fabric, refine=False)
    seq = RICH.sequential_cell_names()
    kind_of = {
        name: "seq" if module.instance(name).cell_name in seq else "logic"
        for name in module.instances
    }
    moves = _SlotMoves(assignment, kind_of)
    return assignment, moves, moves.write_back


def check_against_oracle(placement, cost):
    lengths = dict(zip(cost.nets, cost.lengths))
    for net, length in lengths.items():
        assert length == placement.net_length_um(net), net
    total = sum(lengths[net] for net in placement.module.nets)
    assert total == placement.total_wirelength_um()


@pytest.mark.parametrize("build", [row_problem, fabric_problem],
                         ids=["row", "fabric"])
def test_cached_lengths_match_oracle(cpu16, build):
    placement, problem, write_back = build(cpu16)
    cost = problem.cost
    rng = random.Random(5)
    start = list(cost.lengths)
    for step in range(1, 3001):
        move = problem.propose(rng)
        problem.apply(move)
        if rng.random() < 0.5:
            problem.revert(move)
        if step % 1000 == 0:
            write_back()
            check_against_oracle(placement, cost)
    assert cost.lengths != start


@pytest.mark.parametrize("build", [row_problem, fabric_problem],
                         ids=["row", "fabric"])
def test_revert_restores_every_length(cpu16, build):
    _, problem, _ = build(cpu16)
    cost = problem.cost
    rng = random.Random(9)
    for _ in range(500):
        state = [list(cost.lengths), list(cost.points), list(cost.xs),
                 list(cost.ys)]
        move = problem.propose(rng)
        problem.apply(move)
        problem.revert(move)
        assert [cost.lengths, cost.points, cost.xs, cost.ys] == state
