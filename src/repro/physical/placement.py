"""Gate-level placement: row grid, HPWL objective, annealing refinement.

Section 5: "the primary factor in wire delay is wire length.  Wire length
is obviously dependent on placement".  The placer assigns every instance
a slot on a row grid, then improves total half-perimeter wirelength by
simulated annealing on pairwise swaps.  Two quality settings bracket the
paper's comparison:

* ``careful`` -- topology-aware initial order plus a full annealing
  schedule (the custom / good-tool outcome);
* ``sloppy``  -- random scatter with no refinement (the unfloorplanned
  ASIC outcome Section 5.1 measures against).

The result exports :class:`~repro.sta.timing_graph.WireParasitics` via the
BACPAC-style models in :mod:`repro.physical.wires`, which is how placement
quality reaches the timing engine.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.optimize.anneal import anneal
from repro.physical.geometry import GeometryError, Point
from repro.physical.wires import optimal_repeater_plan, optimal_segment_um
from repro.sta.timing_graph import WireParasitics

#: Routed length is longer than HPWL by a detour factor; 1.15 is a common
#: empirical allowance for lightly congested designs.
ROUTE_DETOUR = 1.15


@dataclass
class Placement:
    """A placed netlist.

    Attributes:
        module: the placed netlist.
        positions: instance name -> location (um).
        port_positions: port name -> location on the die boundary.
        pitch_um: slot pitch of the placement grid.
        detour_factor: routed length over HPWL.
    """

    module: Module
    positions: dict[str, Point]
    port_positions: dict[str, Point]
    pitch_um: float
    detour_factor: float = ROUTE_DETOUR

    def net_length_um(self, net: str) -> float:
        """Estimated routed length of one net (HPWL x detour)."""
        pins = self._net_pins(net)
        if len(pins) < 2:
            return 0.0
        xs = [p.x for p in pins]
        ys = [p.y for p in pins]
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        return hpwl * self.detour_factor

    def _net_pins(self, net: str) -> list[Point]:
        pins: list[Point] = []
        driver = self.module.driver_of(net)
        if driver is not None:
            pins.append(self._endpoint_pos(driver, net))
        for sink in self.module.sinks_of(net):
            pins.append(self._endpoint_pos(sink, net))
        return pins

    def _endpoint_pos(self, endpoint: object, net: str) -> Point:
        if is_port_ref(endpoint):
            return self.port_positions[str(endpoint).split(":", 1)[1]]
        inst_name, _pin = endpoint
        return self.positions[inst_name]

    def total_wirelength_um(self) -> float:
        """Sum of estimated routed lengths over all nets."""
        return sum(self.net_length_um(net) for net in self.module.nets)

    def parasitics(self, library: CellLibrary) -> WireParasitics:
        """Wire parasitics for the timing engine.

        Short nets contribute their wire capacitance (seen by the driver)
        plus the distributed-RC flight time; nets longer than twice the
        optimal repeater segment are assumed repeated, contributing the
        repeater-chain delay and only the first repeater's input load.
        """
        tech = library.technology
        seg = optimal_segment_um(tech)
        extra_cap: dict[str, float] = {}
        extra_delay: dict[str, float] = {}
        for net in self.module.nets:
            length = self.net_length_um(net)
            if length <= 0.0:
                continue
            if length > 2.0 * seg:
                plan = optimal_repeater_plan(tech, length)
                extra_cap[net] = plan.repeater_drive * tech.unit_input_cap_ff
                extra_delay[net] = plan.delay_ps
            else:
                cw = tech.interconnect.wire_capacitance(length)
                rw = tech.interconnect.wire_resistance(length)
                extra_cap[net] = cw
                extra_delay[net] = 0.38 * rw * cw * 1e-3
        return WireParasitics(extra_cap_ff=extra_cap, extra_delay_ps=extra_delay)


def place(
    module: Module,
    library: CellLibrary,
    quality: str = "careful",
    seed: int = 1,
    utilization: float = 0.7,
    iterations: int | None = None,
    rng: random.Random | None = None,
) -> Placement:
    """Place a netlist on a row grid.

    Args:
        module: netlist to place.
        library: provides cell areas and the technology.
        quality: ``"careful"`` (topological seed + annealing) or
            ``"sloppy"`` (random scatter, no refinement).
        seed: RNG seed.  Flows thread ``FlowOptions.seed`` through here,
            so the seed stays part of the design point (it is a
            fingerprinted stage param, *not* a policy field -- two
            seeds are two different placements and must never share a
            cached stage or a resumed sweep point).
        utilization: cell area over die area.
        iterations: annealing steps (default scales with design size).
        rng: explicit RNG to draw from instead of ``Random(seed)``;
            lets callers (e.g. the structured placer's comparisons)
            share one stream across placement styles.

    Raises:
        GeometryError: for empty modules or bad parameters.
    """
    if quality not in ("careful", "sloppy"):
        raise GeometryError(f"unknown placement quality {quality!r}")
    if not 0.05 < utilization <= 1.0:
        raise GeometryError("utilization must be in (0.05, 1.0]")
    instances = list(module.instances)
    if not instances:
        raise GeometryError(f"module {module.name} has nothing to place")

    total_area = sum(
        library.get(module.instance(i).cell_name).area_um2 for i in instances
    )
    die_area = total_area / utilization
    cols = max(1, math.ceil(math.sqrt(len(instances))))
    rows = max(1, math.ceil(len(instances) / cols))
    pitch = math.sqrt(die_area / (rows * cols))
    if rng is None:
        rng = random.Random(seed)

    if quality == "careful":
        seq = library.sequential_cell_names()
        order = topological_order(module, seq)
    else:
        order = list(instances)
        rng.shuffle(order)

    positions: dict[str, Point] = {}
    for idx, name in enumerate(order):
        row, col = divmod(idx, cols)
        if row % 2 == 1:
            col = cols - 1 - col  # serpentine keeps neighbours adjacent
        positions[name] = Point((col + 0.5) * pitch, (row + 0.5) * pitch)

    die_w = cols * pitch
    die_h = rows * pitch
    port_positions: dict[str, Point] = {}
    ins = module.inputs()
    outs = module.outputs()
    for i, port in enumerate(ins):
        port_positions[port] = Point(0.0, die_h * (i + 1) / (len(ins) + 1))
    for i, port in enumerate(outs):
        port_positions[port] = Point(die_w, die_h * (i + 1) / (len(outs) + 1))

    placement = Placement(module, positions, port_positions, pitch)
    if quality == "careful":
        steps = iterations if iterations is not None else 40 * len(instances)
        _anneal(placement, rng, steps)
    return placement


class NetLengths:
    """Net-indexed HPWL cost with a per-net length cache.

    The cost object both annealers share, built once per anneal.  It
    holds every placed instance's location (in ``placement.positions``
    order) plus flat ``xs``/``ys`` coordinate lists: the instances
    first, then the fixed port pins.  Each net is an ``itemgetter``
    over its pin indices into those lists, and its current length is
    cached, so a move's "before" is a lookup and only its "after" is
    measured.  Net ids follow sorted net names, so summing a move's
    nets in id order keeps the PYTHONHASHSEED-independent order every
    accept/reject decision depends on.  A length is computed exactly as
    :meth:`Placement.net_length_um` computes it (exact ``max``/``min``,
    the same detour factor), which stays the oracle.
    """

    def __init__(self, placement: Placement) -> None:
        module = placement.module
        self.placement = placement
        self.detour = placement.detour_factor
        self.names = list(placement.positions)
        #: Instance index -> current location.
        self.points = list(placement.positions.values())
        index = {name: i for i, name in enumerate(self.names)}
        port_index = {
            port: len(self.names) + k
            for k, port in enumerate(placement.port_positions)
        }
        pins_at = self.points + list(placement.port_positions.values())
        self.xs = [p.x for p in pins_at]
        self.ys = [p.y for p in pins_at]
        #: Net names by id.
        self.nets = sorted(module.nets)
        touching: list[set[int]] = [set() for _ in self.names]
        self._pins: list[itemgetter | None] = []
        for net_id, net in enumerate(self.nets):
            driver = module.driver_of(net)
            endpoints = [driver] if driver is not None else []
            pins = []
            for endpoint in endpoints + module.sinks_of(net):
                if is_port_ref(endpoint):
                    pins.append(port_index[str(endpoint).split(":", 1)[1]])
                else:
                    pin = index[endpoint[0]]
                    pins.append(pin)
                    touching[pin].add(net_id)
            # Nets with fewer than two pins never have a length.
            self._pins.append(itemgetter(*pins) if len(pins) >= 2 else None)
        #: Instance index -> ids of the nets it touches.
        self.nets_of = [frozenset(nets) for nets in touching]
        #: Net id -> current length (um).
        self.lengths = [self._measure(pins) for pins in self._pins]
        self._undo: list[tuple[int, Point]] = []
        self._saved: list[tuple[int, float]] = []

    def _measure(self, pins: itemgetter | None) -> float:
        if pins is None:
            return 0.0
        xs = pins(self.xs)
        ys = pins(self.ys)
        hpwl = (max(xs) - min(xs)) + (max(ys) - min(ys))
        return hpwl * self.detour

    def _place(self, i: int, point: Point) -> None:
        self.points[i] = point
        self.xs[i] = point.x
        self.ys[i] = point.y

    def move(self, moved: Sequence[tuple[int, Point]]) -> float:
        """Move instances to new ``(index, location)`` pairs; return the
        change in the summed length of the nets they touch."""
        lengths = self.lengths
        self._undo = [(i, self.points[i]) for i, _ in moved]
        touched: set[int] = set()
        for i, point in moved:
            self._place(i, point)
            touched |= self.nets_of[i]
        nets = sorted(touched)
        before = sum(lengths[n] for n in nets)
        self._saved = [(n, lengths[n]) for n in nets]
        for n in nets:
            lengths[n] = self._measure(self._pins[n])
        after = sum(lengths[n] for n in nets)
        return after - before

    def revert(self) -> None:
        """Undo the last :meth:`move`: locations and saved lengths."""
        for i, point in self._undo:
            self._place(i, point)
        for n, length in self._saved:
            self.lengths[n] = length

    def write_back(self) -> None:
        """Store the current locations in ``placement.positions``."""
        self.placement.positions.update(zip(self.names, self.points))


class _PositionSwaps:
    """Annealing problem: pairwise position swaps on total HPWL.

    The move/cost half of the old in-place annealer; the schedule and
    acceptance rule now live in :func:`repro.optimize.anneal.anneal`.
    """

    def __init__(self, placement: Placement) -> None:
        self.cost = NetLengths(placement)
        self.ids = range(len(self.cost.names))

    def propose(self, rng: random.Random) -> tuple[int, int]:
        # Sampling indices draws exactly what sampling the names did.
        a, b = rng.sample(self.ids, 2)
        return a, b

    def apply(self, move: tuple[int, int]) -> float:
        a, b = move
        points = self.cost.points
        return self.cost.move(((a, points[b]), (b, points[a])))

    def revert(self, move: tuple[int, int]) -> None:
        self.cost.revert()


def _anneal(placement: Placement, rng: random.Random, steps: int) -> None:
    """Pairwise-swap annealing on total HPWL."""
    if len(placement.positions) < 2:
        return
    swaps = _PositionSwaps(placement)
    anneal(swaps, rng, steps=steps, temperature=placement.pitch_um * 4.0)
    swaps.cost.write_back()
