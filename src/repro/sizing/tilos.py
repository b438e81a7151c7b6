"""TILOS-style greedy sensitivity sizing of mapped netlists.

Fishburn & Dunlop's TILOS (paper reference [7]) sizes transistors by
repeatedly bumping the element with the best delay-improvement-per-area
sensitivity on the critical path.  Our gate-level version does the same
over library drive strengths:

1. run STA, extract the critical path;
2. for every gate on it, trial the next drive variant (or a continuously
   scaled cell when the library has a continuous factory);
3. commit the swap with the best delay gain per added area;
4. repeat until timing is met, no move helps, or the budget runs out.

All timing here runs through a timing session
(:class:`~repro.par.session.ArrayTimingSession`): one compile and
propagation when the loop starts, then one multi-row propagation per
move that evaluates every candidate of step 2 as its own batch row.  A committed move's state and report come straight out
of the session -- the accepted trial's row is reused instead of
re-running a full analysis on the netlist the inner loop just
evaluated.

Section 6.2: "After layout, transistors can be resized accounting for the
drive strengths required to send signals across the circuit ... can make
a speed difference of 20% or more."
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.numeric import left_sum
from repro.par.session import ArrayTimingSession
from repro.sizing.logical_effort import SizingError
from repro.sta.clocking import Clock
from repro.sta.engine import TimingReport
from repro.sta.timing_graph import WireParasitics


@dataclass
class SizingResult:
    """Outcome of a sizing run.

    Attributes:
        initial_period_ps: minimum period before sizing.
        final_period_ps: minimum period after sizing.
        moves: number of accepted drive changes.
        area_before_um2: total cell area before.
        area_after_um2: total cell area after.
        report: final timing report.
    """

    initial_period_ps: float
    final_period_ps: float
    moves: int
    area_before_um2: float
    area_after_um2: float
    report: TimingReport

    @property
    def speedup(self) -> float:
        return self.initial_period_ps / self.final_period_ps

    @property
    def area_growth(self) -> float:
        return self.area_after_um2 / self.area_before_um2


def total_area_um2(module: Module, library: CellLibrary) -> float:
    """Total cell area of a mapped netlist."""
    return left_sum(
        library.get(inst.cell_name).area_um2 for inst in module.iter_instances()
    )


def _next_drive_cell(library: CellLibrary, cell_name: str,
                     continuous_step: float = 1.4) -> str | None:
    """Name of the next-stronger variant of a cell, or None at the top.

    With a continuous factory, generates a cell ``continuous_step`` times
    stronger and registers it in the library so STA can resolve it.
    """
    cell = library.get(cell_name)
    if cell.is_sequential:
        return None
    if library.continuous_factory is not None:
        new_drive = cell.drive * continuous_step
        candidate = library.continuous_factory(cell.base_name, new_drive)
        if candidate.name not in library:
            library.add(candidate)
        return candidate.name
    variants = library.drives_of(cell.base_name)
    stronger = [c for c in variants if c.drive > cell.drive]
    if not stronger:
        return None
    return stronger[0].name


def size_for_speed(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    target_period_ps: float | None = None,
    max_moves: int = 500,
    area_limit: float = 3.0,
    check_array: bool = False,
) -> SizingResult:
    """Greedy sensitivity sizing; mutates ``module`` in place.

    Args:
        module: mapped netlist to size.
        library: its library (grows new cells in continuous mode).
        clock: analysis clock.
        wire: optional wire parasitics (post-layout resizing, Sec. 6.2).
        target_period_ps: stop once this period is met (None = squeeze
            until no move helps).
        max_moves: upper bound on accepted changes.
        area_limit: stop when area grows beyond this multiple.
        check_array: verify the session against the object engine: every
            commit and every trial against a full
            :func:`~repro.sta.engine.analyze` of the swapped netlist.

    Raises:
        SizingError: on invalid budgets.
    """
    if max_moves < 0 or area_limit < 1.0:
        raise SizingError("invalid sizing budget")
    with obs.span("sizing.tilos", budget=max_moves) as sp:
        area_before = total_area_um2(module, library)
        session = ArrayTimingSession(module, library, clock, wire=wire,
                                     check=check_array)
        report = session.report()
        initial_period = report.min_period_ps
        area_now = area_before
        moves = 0
        while moves < max_moves:
            if target_period_ps is not None and (
                report.min_period_ps <= target_period_ps
            ):
                break
            if area_now > area_limit * area_before:
                break
            move = _best_move(session, library, report)
            if move is None:
                break
            instance, new_cell, added_area = move
            report = session.commit(instance, new_cell)
            area_now += added_area
            if not math.isfinite(report.min_period_ps):
                raise SizingError(
                    f"sizing diverged to a non-finite period after "
                    f"{moves} moves (swap {instance} -> {new_cell})"
                )
            moves += 1
        area_after = total_area_um2(module, library)
        obs.count("sizing.tilos.calls")
        obs.observe("sizing.tilos.moves", moves)
        obs.observe("sizing.tilos.area_delta_um2", area_after - area_before)
        sp.set(moves=moves, area_delta_um2=area_after - area_before,
               speedup=initial_period / report.min_period_ps)
    return SizingResult(
        initial_period_ps=initial_period,
        final_period_ps=report.min_period_ps,
        moves=moves,
        area_before_um2=area_before,
        area_after_um2=area_after,
        report=report,
    )


def _best_move(
    session: ArrayTimingSession,
    library: CellLibrary,
    report: TimingReport,
) -> tuple[str, str, float] | None:
    """Trial upsizing each critical-path gate; best (inst, cell, area).

    Sensitivity is delay improvement per unit added area; moves that do
    not improve the period are rejected.  All candidates are trialled
    in one session call (one batched propagation), then chosen in
    critical-path order.
    """
    base_period = report.min_period_ps
    moves: list[tuple[str, str]] = []
    areas: list[float] = []
    seen: set[str] = set()
    for step in report.critical_path:
        if step.instance in seen:
            continue
        seen.add(step.instance)
        old_cell = session.module.instance(step.instance).cell_name
        # In path order: a continuous factory registers cells as it goes.
        candidate = _next_drive_cell(library, old_cell)
        if candidate is None:
            continue
        moves.append((step.instance, candidate))
        areas.append(
            library.get(candidate).area_um2 - library.get(old_cell).area_um2
        )
    if not moves:
        return None
    obs.count("sizing.tilos.trials", len(moves))
    periods = session.trial(moves)
    best: tuple[float, str, str, float] | None = None
    for (instance, candidate), added_area, trial_period in zip(
        moves, areas, periods
    ):
        gain = base_period - trial_period
        if gain <= 1e-9:
            continue
        sensitivity = gain / max(added_area, 1e-9)
        if best is None or sensitivity > best[0]:
            best = (sensitivity, instance, candidate, added_area)
    if best is None:
        return None
    return best[1], best[2], best[3]


def downsize_off_critical(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    slack_margin_ps: float = 0.0,
) -> int:
    """Minimum-power sizing: shrink gates that can afford it.

    Section 6.2: "Sizing transistors minimally to reduce power
    consumption, except on critical paths where they are optimally sized
    to meet speed requirements".  Every gate is trial-downsized to the
    next weaker variant and the change is kept if the minimum period does
    not degrade (beyond the margin).  Returns the number of gates shrunk.
    Each trial depends on the commits before it, so trials run one at a
    time.
    """
    session = ArrayTimingSession(module, library, clock, wire=wire)
    budget = session.min_period_ps() + slack_margin_ps
    shrunk = 0
    for inst_name in sorted(module.instances):
        cell = library.get(module.instance(inst_name).cell_name)
        if cell.is_sequential:
            continue
        variants = library.drives_of(cell.base_name)
        weaker = [c for c in variants if c.drive < cell.drive]
        if not weaker:
            continue
        trial_period = session.trial(inst_name, weaker[-1].name)
        if trial_period <= budget + 1e-9:
            session.commit(inst_name, weaker[-1].name)
            shrunk += 1
    obs.count("sizing.tilos.downsized", shrunk)
    return shrunk
