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

from repro import obs
from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.numeric import left_sum
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
        return left_sum(self.net_length_um(net) for net in self.module.nets)

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

    total_area = left_sum(
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
    """Net-indexed HPWL cost with a per-net bounding box and length.

    The cost object both annealers share, built once per anneal.  It
    holds every placed instance's location (in ``placement.positions``
    order) plus flat ``xs``/``ys`` coordinate lists: the instances
    first, then the fixed port pins.  Each net is an ``itemgetter``
    over its pin indices into those lists; its bounding box
    (``xlo``/``xhi``/``ylo``/``yhi``) and length are cached, so a move's
    "before" is a lookup and its "after" comes from the updated boxes.

    A moved pin updates a box edge in O(1); the net's pins are
    rescanned (exact ``min``/``max``) only when the pin's old
    coordinate sat on an edge and the new one lies inward of it, since
    only then can that edge shrink to an unknown value.  A box is thus
    always the exact ``min``/``max`` of its pins, and a length is
    computed from it by :meth:`Placement.net_length_um`'s expression
    (same detour factor), which stays the oracle.  Net ids follow
    sorted net names, so summing a move's nets in id order keeps the
    PYTHONHASHSEED-independent order every accept/reject decision
    depends on.  Nets with fewer than two pins never have a length and
    are left out of ``nets_of``.
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
                    pins.append(index[endpoint[0]])
            if len(pins) < 2:
                self._pins.append(None)
                continue
            self._pins.append(itemgetter(*pins))
            for pin in pins:
                if pin < len(self.names):
                    touching[pin].add(net_id)
        #: Instance index -> ids of the nets (two or more pins) it touches.
        self.nets_of = [frozenset(nets) for nets in touching]
        #: Net id -> bounding box edges (um); 0.0 for nets with fewer
        #: than two pins.
        self.xlo, self.xhi = self._spans(self.xs)
        self.ylo, self.yhi = self._spans(self.ys)
        #: Net id -> current length (um).
        self.lengths = [
            ((x1 - x0) + (y1 - y0)) * self.detour
            for x0, x1, y0, y1 in zip(self.xlo, self.xhi, self.ylo, self.yhi)
        ]
        #: Nets re-measured by moves, and rescans among them (per axis).
        self.updates = 0
        self.rescans = 0
        self._undo: list[tuple[int, Point]] = []
        self._saved: list[tuple[int, float, float, float, float, float]] = []

    def _spans(self, coords: list[float]) -> tuple[list[float], list[float]]:
        lo: list[float] = []
        hi: list[float] = []
        for pins in self._pins:
            values = pins(coords) if pins is not None else (0.0,)
            lo.append(min(values))
            hi.append(max(values))
        return lo, hi

    def _shift(self, nets: frozenset[int], old: float, new: float,
               coords: list[float], lo: list[float],
               hi: list[float]) -> int:
        """Update one axis of each net's box for a pin moving from
        ``old`` to ``new`` (``coords`` already holds ``new``); return
        how many boxes were rescanned."""
        pins = self._pins
        rescans = 0
        for n in nets:
            low = lo[n]
            high = hi[n]
            if (old == low and new > low) or (old == high and new < high):
                values = pins[n](coords)
                lo[n] = min(values)
                hi[n] = max(values)
                rescans += 1
            elif new < low:
                lo[n] = new
            elif new > high:
                hi[n] = new
        return rescans

    def _place(self, i: int, point: Point) -> None:
        self.points[i] = point
        self.xs[i] = point.x
        self.ys[i] = point.y

    def move(self, moved: Sequence[tuple[int, Point]]) -> float:
        """Move instances to new ``(index, location)`` pairs; return the
        change in the summed length of the nets they touch."""
        lengths = self.lengths
        xs, ys = self.xs, self.ys
        xlo, xhi, ylo, yhi = self.xlo, self.xhi, self.ylo, self.yhi
        nets_of = self.nets_of
        touched: set[int] = set()
        for i, _ in moved:
            touched |= nets_of[i]
        nets = sorted(touched)
        self._saved = [(n, lengths[n], xlo[n], xhi[n], ylo[n], yhi[n])
                       for n in nets]
        self._undo = [(i, self.points[i]) for i, _ in moved]
        rescans = 0
        for i, point in moved:
            old_x = xs[i]
            old_y = ys[i]
            self._place(i, point)
            if point.x != old_x:
                rescans += self._shift(nets_of[i], old_x, point.x, xs,
                                       xlo, xhi)
            if point.y != old_y:
                rescans += self._shift(nets_of[i], old_y, point.y, ys,
                                       ylo, yhi)
        self.updates += len(nets)
        self.rescans += rescans
        before = left_sum(map(lengths.__getitem__, nets))
        detour = self.detour
        for n in nets:
            lengths[n] = ((xhi[n] - xlo[n]) + (yhi[n] - ylo[n])) * detour
        after = left_sum(map(lengths.__getitem__, nets))
        return after - before

    def revert(self) -> None:
        """Undo the last :meth:`move`: locations, boxes and lengths."""
        for i, point in self._undo:
            self._place(i, point)
        lengths = self.lengths
        xlo, xhi, ylo, yhi = self.xlo, self.xhi, self.ylo, self.yhi
        for n, length, x0, x1, y0, y1 in self._saved:
            lengths[n] = length
            xlo[n] = x0
            xhi[n] = x1
            ylo[n] = y0
            yhi[n] = y1

    def write_back(self) -> None:
        """Store the current locations in ``placement.positions`` and
        count this anneal's net updates and rescans."""
        self.placement.positions.update(zip(self.names, self.points))
        obs.count("physical.hpwl.updates", self.updates)
        obs.count("physical.hpwl.rescans", self.rescans)


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
