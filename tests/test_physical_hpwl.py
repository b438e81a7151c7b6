"""The annealers' cached net-length cost against its oracle and goldens.

:class:`~repro.physical.placement.NetLengths` keeps each net's bounding
box and length, updating a box in O(1) per moved pin and rescanning the
net's pins only when an edge may shrink.  ``Placement.net_length_um``
stays the oracle every cached length must equal exactly, and every
cached box must equal the ``min``/``max`` of its pins recomputed from
scratch.  The digests in ``tests/golden/placement_cpu16.json`` were
recorded from the annealers that recomputed every touched net before
and after each move, so they pin that neither the length cache nor the
boxes changed an accept/reject decision.
"""

import hashlib
import json
import pathlib
import random

import pytest

from repro import obs
from repro.cells import rich_asic_library
from repro.datapath.cpu import cpu_execute_stage
from repro.flows import (
    AsicFlowOptions,
    CustomFlowOptions,
    StructuredFlowOptions,
)
from repro.flows.engine import FlowEngine
from repro.flows.registry import backend_for_options
from repro.netlist.module import Module
from repro.numeric import left_sum
from repro.physical import SlotAssignment, assign_slots, fabric_for, place
from repro.physical import placement as placement_module
from repro.physical.fabric import _SlotMoves
from repro.physical.geometry import Point
from repro.physical.placement import NetLengths, Placement, _PositionSwaps
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


def boxes(cost):
    """Every net's cached box, by net name."""
    return {net: (cost.xlo[n], cost.xhi[n], cost.ylo[n], cost.yhi[n])
            for n, net in enumerate(cost.nets)}


def check_against_oracle(placement, cost):
    lengths = dict(zip(cost.nets, cost.lengths))
    for net, length in lengths.items():
        assert length == placement.net_length_um(net), net
    total = left_sum(lengths[net] for net in placement.module.nets)
    assert total == placement.total_wirelength_um()
    touched = set().union(*cost.nets_of)
    for n, (net, box) in enumerate(boxes(cost).items()):
        pins = placement._net_pins(net)
        if len(pins) < 2:
            assert n not in touched, net
            continue
        xs = [p.x for p in pins]
        ys = [p.y for p in pins]
        assert box == (min(xs), max(xs), min(ys), max(ys)), net


def top_net(cost):
    """Id of the net touching the most instances (cpu16's ``clk``)."""
    return max(range(len(cost.nets)),
               key=lambda n: sum(n in nets for nets in cost.nets_of))


@pytest.mark.parametrize("build", [row_problem, fabric_problem],
                         ids=["row", "fabric"])
def test_cached_lengths_match_oracle(cpu16, build):
    placement, problem, write_back = build(cpu16)
    cost = problem.cost
    top = top_net(cost)
    assert cost.nets[top] == "clk"
    top_pins = cost._pins[top]
    rng = random.Random(5)
    start = list(cost.lengths)
    start_top = boxes(cost)["clk"]
    top_changed = False
    for step in range(1, 3001):
        move = problem.propose(rng)
        problem.apply(move)
        if rng.random() < 0.5:
            problem.revert(move)
        xs, ys = top_pins(cost.xs), top_pins(cost.ys)
        top_box = (cost.xlo[top], cost.xhi[top], cost.ylo[top], cost.yhi[top])
        assert top_box == (min(xs), max(xs), min(ys), max(ys)), step
        top_changed |= top_box != start_top
        if step % 1000 == 0:
            write_back()
            check_against_oracle(placement, cost)
    assert cost.lengths != start
    assert top_changed


@pytest.mark.parametrize("build", [row_problem, fabric_problem],
                         ids=["row", "fabric"])
def test_revert_restores_every_length(cpu16, build):
    _, problem, _ = build(cpu16)
    cost = problem.cost
    rng = random.Random(9)
    for _ in range(500):
        state = [list(cost.lengths), list(cost.points), list(cost.xs),
                 list(cost.ys), boxes(cost)]
        move = problem.propose(rng)
        problem.apply(move)
        problem.revert(move)
        assert [cost.lengths, cost.points, cost.xs, cost.ys,
                boxes(cost)] == state


def tiny_placement(module, positions):
    return Placement(
        module,
        {name: Point(*xy) for name, xy in positions.items()},
        {"a": Point(0.0, 5.0), "y": Point(40.0, 5.0)},
        pitch_um=10.0,
    )


def check_move(placement, cost, moved):
    """Apply ``moved`` and check the delta, lengths and boxes exactly
    against the oracle, then revert and check the starting state."""
    index = {name: i for i, name in enumerate(cost.names)}
    nets = sorted(set().union(*(cost.nets_of[index[name]]
                                for name, _ in moved)))
    before = left_sum(placement.net_length_um(cost.nets[n]) for n in nets)
    start = [list(cost.lengths), boxes(cost)]
    delta = cost.move([(index[name], Point(*xy)) for name, xy in moved])
    cost.write_back()
    check_against_oracle(placement, cost)
    after = left_sum(placement.net_length_um(cost.nets[n]) for n in nets)
    assert delta == after - before
    cost.revert()
    cost.write_back()
    assert [cost.lengths, boxes(cost)] == start
    check_against_oracle(placement, cost)
    return delta


def test_swap_of_two_instances_sharing_a_net():
    # u and w hold the x edges of the shared 3-pin net n1; v sits inside.
    module = Module("swap")
    module.add_input("a")
    module.add_output("y")
    module.add_instance("u", "BUF", {"A": "a"}, {"Y": "n1"})
    module.add_instance("v", "BUF", {"A": "n1"}, {"Y": "n2"})
    module.add_instance("w", "NAND2", {"A": "n1", "B": "n2"}, {"Y": "y"})
    placement = tiny_placement(
        module, {"u": (10.0, 10.0), "v": (20.0, 0.0), "w": (30.0, 20.0)})
    cost = NetLengths(placement)
    check_against_oracle(placement, cost)
    points = dict(zip(cost.names, cost.points))
    # Edge-for-edge swap: the box is unchanged, but each move alone
    # leaves an edge inward and forces a rescan.
    uw = [("u", (points["w"].x, points["w"].y)),
          ("w", (points["u"].x, points["u"].y))]
    rescans = cost.rescans
    check_move(placement, cost, uw)
    assert cost.rescans > rescans
    # Edge-for-interior swap, and a swap that shares two nets.
    check_move(placement, cost, [("u", (20.0, 0.0)), ("v", (10.0, 10.0))])
    check_move(placement, cost, [("v", (30.0, 20.0)), ("w", (20.0, 0.0))])


def test_instance_with_two_pins_on_one_net():
    # w reads n1 on both inputs, so n1 lists w twice.
    module = Module("twice")
    module.add_input("a")
    module.add_output("y")
    module.add_instance("u", "BUF", {"A": "a"}, {"Y": "n1"})
    module.add_instance("w", "NAND2", {"A": "n1", "B": "n1"}, {"Y": "y"})
    placement = tiny_placement(module, {"u": (10.0, 10.0),
                                        "w": (30.0, 20.0)})
    cost = NetLengths(placement)
    for xy in [(20.0, 0.0), (5.0, 10.0), (10.0, 10.0), (50.0, 30.0)]:
        check_move(placement, cost, [("w", xy)])
        cost.move([(cost.names.index("w"), Point(*xy))])
        cost.write_back()
        check_against_oracle(placement, cost)


def test_pinless_nets_are_not_touched():
    module = Module("stub")
    module.add_input("a")
    module.add_output("y")
    module.add_instance("u", "BUF", {"A": "a"}, {"Y": "dangling"})
    module.add_instance("w", "BUF", {"A": "a"}, {"Y": "y"})
    placement = tiny_placement(module, {"u": (10.0, 10.0),
                                        "w": (30.0, 20.0)})
    cost = NetLengths(placement)
    dangling = cost.nets.index("dangling")
    assert all(dangling not in nets for nets in cost.nets_of)
    assert cost.lengths[dangling] == 0.0
    check_move(placement, cost, [("u", (20.0, 0.0))])


def test_top_net_rescans_rarely(monkeypatch):
    """On the asic cpu16 anneal a move that touches the clock net
    rescans its pins at most once in five such moves: the box, not a
    rescan, absorbs almost every flop move."""
    seen = {}
    real_anneal = placement_module.anneal

    def instrumented(problem, rng, steps, temperature):
        cost = problem.cost
        top = top_net(cost)
        pins = cost._pins[top]
        touching = [cost.nets_of[i] for i in range(len(cost.names))]
        rescans = 0

        def counting(coords):
            nonlocal rescans
            rescans += 1
            return pins(coords)

        moves = 0
        apply = problem.apply

        def counted_apply(move):
            nonlocal moves
            moves += any(top in touching[i] for i in move)
            return apply(move)

        cost._pins[top] = counting
        problem.apply = counted_apply
        accepted = real_anneal(problem, rng, steps, temperature)
        seen.update(net=cost.nets[top], moves=moves, rescans=rescans)
        return accepted

    monkeypatch.setattr(placement_module, "anneal", instrumented)
    options = CASES["asic_cpu16"]
    backend = backend_for_options(options)
    ctx = FlowEngine(backend.graph).run(options, backend.default_tech,
                                        until="place")
    assert seen["net"] == "clk"
    assert seen["moves"] > 1000
    assert seen["rescans"] <= seen["moves"] / 5
    # The instrumentation changed nothing the anneal decided.
    assert (positions_digest(ctx["placement"])
            == GOLDEN["asic_cpu16"]["positions_sha256"])


def test_anneal_counts_once_per_call(cpu16):
    """The annealer and the cost object report their unit-cost counts
    when an anneal ends: moves, accepted moves, nets re-measured and
    axis rescans."""
    obs.enable()
    try:
        place(cpu16, RICH, seed=1, iterations=2000)
        metrics = obs.get_metrics()
        moves = metrics.counter("optimize.anneal.moves").value()
        accepted = metrics.counter("optimize.anneal.accepted").value()
        updates = metrics.counter("physical.hpwl.updates").value()
        rescans = metrics.counter("physical.hpwl.rescans").value()
    finally:
        obs.disable()
        obs.reset()
    assert moves == 2000
    assert 0 < accepted < moves
    assert moves < updates
    assert 0 < rescans < 2 * updates
