"""Incremental static timing analysis over sizing moves.

An :class:`ArrayTimingSession` binds a module/library/clock once,
compiles its timing graph (:mod:`repro.sta.array`) and pays for one
propagation up front.  A drive swap on instance ``g`` changes:

* ``g``'s own arc delays (new cell, same loads), and
* the loads of every net feeding ``g`` (its input pin caps changed),
  which perturbs the *drivers* of those nets.

:meth:`~ArrayTimingSession.trial` takes a list of ``(instance,
cell_name)`` moves and evaluates them, each against the same committed
state, as the rows of one level sweep.  Each row overrides only the
coefficient slots its move touches (``g`` and the drivers of its input
nets), so every row equals that move's single-row propagation bit for
bit.  :meth:`~ArrayTimingSession.commit` applies a move, adopting its
trialled row instead of propagating again, and returns the resulting
:class:`~repro.sta.engine.TimingReport` (built by the engine's own
``build_report``, so sizing loops reuse it instead of re-analyzing).

:func:`repro.sta.engine.analyze` is the session's only oracle and
fallback.  A design the array engine cannot reproduce exactly degrades
the session to full analyses of the swapped netlist, so callers see the
engine's exact values and typed errors either way.  ``check=True``
re-derives every trial period and every committed report with it.

Topology changes (buffering, resynthesis) invalidate a session: build a
new one.  Sequential cells cannot be resized through a session.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.cells.library import CellLibrary
from repro.netlist.module import Module
from repro.netlist.nets import is_port_ref
from repro.sta.clocking import Clock
from repro.sta.engine import DEFAULT_INPUT_SLEW_PS, TimingReport, analyze
from repro.sta.timing_graph import TimingError, WireParasitics


class SessionCheckError(TimingError):
    """Incremental and full STA disagreed (``check=True`` violation)."""


class ArrayTimingSession:
    """Incremental STA state for one netlist under sizing moves.

    One :class:`~repro.sta.array.CompiledTiming` is paid for up front.
    A list of trial moves becomes one multi-row propagation: each move
    is swapped in, the coefficients of the instances it touches (the
    swapped cell plus the drivers of its input nets, whose loads
    changed) are captured as that row's override, and the swap is
    reverted.  The sweep re-times the whole netlist per row, but its
    cost is numpy dispatch per level, which all rows share.

    Exactness contract: results bitwise-equal to
    :func:`repro.sta.engine.analyze` of the swapped netlist.  When the
    array engine cannot guarantee that -- undriven logic, poisoned or
    unknown arc models, non-finite arithmetic -- the session keeps the
    ``analyze()`` report of its committed netlist and runs every trial
    and commit as a full analysis, and a trial batch the array engine
    rejects is re-run row by row, with ``analyze()`` evaluating each
    row the engine still rejects.

    Args:
        module: netlist to analyse; the session mutates it on commits.
        library: its cell library.
        clock: clock domain.
        wire: optional wire parasitics.
        input_slew_ps: transition time assumed at path starts.
        input_arrival_ps: arrival of module inputs vs the launch edge.
        output_load_ff: load on each output port (library default if
            None).
        delay_derate: corner derate, as in :func:`analyze`.
        check: when True, construction and every commit re-run the full
            engine, every trial period is re-derived with it, and any
            divergence raises :class:`SessionCheckError` -- the slow
            belt-and-braces mode the equivalence tests run in.
    """

    def __init__(
        self,
        module: Module,
        library: CellLibrary,
        clock: Clock,
        wire: WireParasitics | None = None,
        input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
        input_arrival_ps: float = 0.0,
        output_load_ff: float | None = None,
        delay_derate: float = 1.0,
        check: bool = False,
    ) -> None:
        if not (delay_derate > 0.0) or math.isinf(delay_derate):
            raise TimingError(
                f"delay derate must be a positive finite number, "
                f"got {delay_derate}"
            )
        self.module = module
        self.library = library
        self.clock = clock
        self._wire = wire
        self._input_slew = input_slew_ps
        self._input_arrival = input_arrival_ps
        self._output_load = output_load_ff
        self._derate = delay_derate
        self._derates = np.array([delay_derate])
        self._check = check
        #: ``analyze()`` of the committed netlist once the session has
        #: degraded to full analyses; None while the array engine runs.
        self._degraded: TimingReport | None = None
        #: The last array-evaluated trial batch, ``(moves, state)``; valid
        #: until the next commit changes the committed state.
        self._last: tuple[list, object] | None = None
        self._touched_of: dict[str, tuple[str, ...]] = {}
        from repro.sta.array import _ArrayFallback, compile_timing

        try:
            self._compiled = compile_timing(
                module, library, wire, output_load_ff
            )
            self._state = self._compiled.propagate(
                input_slew_ps, input_arrival_ps, self._derates
            )
        except _ArrayFallback:
            obs.count("sta.array.fallbacks")
            self._degrade()
            return
        self._graph = self._compiled.graph
        if not self._build_endpoint_rows():
            # An endpoint net without a defined arrival: analyze()
            # names it with its own typed error.
            self._degrade()
            return
        if self._check:
            self._verify_against_full()

    def _analyze(self) -> TimingReport:
        """:func:`analyze` of the module's current cells."""
        return analyze(
            self.module, self.library, self.clock,
            wire=self._wire,
            input_slew_ps=self._input_slew,
            input_arrival_ps=self._input_arrival,
            output_load_ff=self._output_load,
            delay_derate=self._derate,
        )

    def _degrade(self) -> None:
        """Run the session on full analyses from now on."""
        self._degraded = self._analyze()

    def _build_endpoint_rows(self) -> bool:
        """Vectorized endpoint accounting; False if any net is undefined."""
        defined = set(self._compiled._input_ids.tolist())
        defined.update(self._compiled._reg_ids.tolist())
        defined.update(self._compiled._out_net.tolist())
        nets: list[int] = []
        wire_d: list[float] = []
        setup: list[float] = []
        borrow: list[float] = []
        is_reg: list[bool] = []
        for kind, detail in self._graph.endpoints():
            if kind == "port":
                net = str(detail)
                s = 0.0
                br = 0.0
                reg = False
            else:
                inst_name, pin = detail
                cell = self._graph.cell_of(inst_name)
                net = self.module.instance(inst_name).inputs[pin]
                s = cell.sequential.setup_ps * self._derate
                br = (
                    self.clock.borrow_window_ps
                    if cell.sequential.transparent
                    else 0.0
                )
                reg = True
            nid = self._compiled._net_id(net)
            if nid is None or nid not in defined:
                return False
            nets.append(nid)
            wire_d.append(self._graph.wire.delay(net) * self._derate)
            setup.append(s)
            borrow.append(br)
            is_reg.append(reg)
        self._ep_net = np.asarray(nets, dtype=np.int64)
        self._ep_wire = np.asarray(wire_d)
        self._ep_setup = np.asarray(setup)
        self._ep_borrow = np.asarray(borrow)
        self._ep_isreg = np.asarray(is_reg, dtype=bool)
        return True

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def _set_cell(self, instance: str, cell_name: str) -> str:
        """Put a cell into the module (and the compiled graph); returns
        the old name.  A no-op swap changes nothing and never raises.

        The compiled coefficients are not refreshed.
        """
        old = self.module.instance(instance).cell_name
        if old == cell_name:
            return old
        if (
            self.library.get(old).is_sequential
            or self.library.get(cell_name).is_sequential
        ):
            raise TimingError(
                f"cannot resize {instance!r} through a timing session: "
                "sequential cells are fixed for a session's lifetime"
            )
        self.module.replace_cell(instance, cell_name)
        if self._degraded is None:
            self._graph.rebind(instance)
        return old

    def _touched(self, instance: str) -> tuple[str, ...]:
        """Instances whose coefficients a swap of ``instance`` changes:
        itself and the combinational drivers of its input nets (their
        loads change)."""
        got = self._touched_of.get(instance)
        if got is None:
            touched = {instance}
            for in_net in self.module.instance(instance).inputs.values():
                driver = self.module.driver_of(in_net)
                if (
                    driver is not None
                    and not is_port_ref(driver)
                    and not self._graph.cell_of(driver[0]).is_sequential
                ):
                    touched.add(driver[0])
            got = self._touched_of[instance] = tuple(touched)
        return got

    def _capture(self, instance: str, cell_name: str):
        """One move's coefficient override (None for a no-op move); the
        module and the compiled coefficients are left as they were."""
        if self.module.instance(instance).cell_name == cell_name:
            return None
        old = self._set_cell(instance, cell_name)
        try:
            return self._compiled.capture(self._touched(instance))
        finally:
            self._set_cell(instance, old)

    def _min_periods_of(self, state) -> list[float]:
        if self._ep_net.size == 0:
            raise TimingError(
                f"module {self.module.name} has no timing endpoints"
            )
        at = state.arr[:, self._ep_net] + self._ep_wire
        mp = ((at + self._ep_setup) + self.clock.skew_ps) - self._ep_borrow
        np.maximum(mp, 1e-3, out=mp)
        return np.where(self._ep_isreg, mp, at).max(axis=1).tolist()

    def trial(self, instance, cell_name: str | None = None):
        """Minimum period if the swap were made; session state restored.

        ``trial(moves)`` with a list of ``(instance, cell_name)`` pairs
        evaluates them all, each against the committed state, as rows of
        one propagation and returns their periods in order.  Errors are
        those of a loop of single trials: the first failing move's.
        """
        if isinstance(instance, str):
            return self._trials([(instance, cell_name)])[0]
        return self._trials([(inst, cell) for inst, cell in instance])

    def _trials(self, moves: list[tuple[str, str]]) -> list[float]:
        obs.count("par.session.trials", len(moves))
        if self._degraded is not None:
            return [self._object_trial(inst, cell) for inst, cell in moves]
        rows = []
        error = None
        for instance, cell_name in moves:
            try:
                rows.append(self._capture(instance, cell_name))
            except TimingError as exc:
                # Evaluate the moves before it first: one of them may
                # raise its own error, as a loop of single trials would.
                error = exc
                break
        periods = self._evaluate(moves[:len(rows)], rows) if rows else []
        if error is not None:
            raise error
        if self._check:
            self._verify_trials(moves, periods)
        return periods

    def _evaluate(self, moves, rows) -> list[float]:
        from repro.sta.array import _ArrayFallback

        try:
            state = self._compiled.propagate(
                self._input_slew, self._input_arrival,
                np.full(len(rows), self._derate), rows,
            )
        except _ArrayFallback:
            obs.count("sta.array.fallbacks")
            if len(rows) > 1:
                # Only the rows that need the full engine pay for it.
                return [
                    period for move, row in zip(moves, rows)
                    for period in self._evaluate([move], [row])
                ]
            return [self._object_trial(*moves[0])]
        self._last = (moves, state)
        return self._min_periods_of(state)

    def _object_trial(self, instance: str, cell_name: str) -> float:
        """The move's period from :func:`analyze` of the swapped netlist.

        The object engine is the only faithful evaluator of a move the
        array engine rejects (poisoned arcs, NaN shadowing with the
        finite guard off): it either raises its exact typed error or
        yields the exact period.
        """
        old = self._set_cell(instance, cell_name)
        try:
            return self._analyze().min_period_ps
        finally:
            self._set_cell(instance, old)

    def _verify_trials(self, moves, periods) -> None:
        """Re-derive every trial period with :func:`analyze`."""
        for (instance, cell_name), got in zip(moves, periods):
            want = self._object_trial(instance, cell_name)
            if got != want and not (math.isnan(got) and math.isnan(want)):
                raise SessionCheckError(
                    f"batched trial {instance} -> {cell_name} gives {got} "
                    f"but analyze() gives {want}"
                )

    def _trialled_state(self, instance: str, cell_name: str):
        """The move's row of the last trial batch, or None."""
        if self._last is None:
            return None
        moves, state = self._last
        try:
            return state.row(moves.index((instance, cell_name)))
        except ValueError:
            return None

    def commit(self, instance: str, cell_name: str) -> TimingReport:
        """Apply a swap, re-propagate, return the new report."""
        obs.count("par.session.commits")
        if self._degraded is not None:
            self._set_cell(instance, cell_name)
            self._degrade()
            return self._degraded
        from repro.sta.array import _ArrayFallback

        if self.module.instance(instance).cell_name != cell_name:
            state = self._trialled_state(instance, cell_name)
            self._last = None
            self._set_cell(instance, cell_name)
            self._compiled.refresh(self._touched(instance))
            if state is None:
                try:
                    state = self._compiled.propagate(
                        self._input_slew, self._input_arrival, self._derates
                    )
                except _ArrayFallback:
                    obs.count("sta.array.fallbacks")
                    self._degrade()
                    return self._degraded
            self._state = state
        report = self.report()
        if self._check:
            self._verify_against_full()
        return report

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def min_period_ps(self) -> float:
        """Binding minimum period over all endpoints (cheap trial form)."""
        if self._degraded is not None:
            return self._degraded.min_period_ps
        return self._min_periods_of(self._state)[0]

    def report(self) -> TimingReport:
        """Full :class:`TimingReport` from the session's cached state."""
        if self._degraded is not None:
            return self._degraded
        return self._state.report(self.clock)

    # ------------------------------------------------------------------
    # Equivalence checking
    # ------------------------------------------------------------------

    def _verify_against_full(self) -> None:
        """Assert session state equals a from-scratch full analysis."""
        from repro.sta.array import ArrayCheckError, assert_reports_match

        full = self._analyze()
        try:
            assert_reports_match(self.report(), full)
        except ArrayCheckError as exc:
            raise SessionCheckError(str(exc)) from exc
        session_period = self.min_period_ps()
        if not math.isclose(
            session_period, full.min_period_ps, rel_tol=1e-12, abs_tol=1e-12
        ):
            raise SessionCheckError(
                f"incremental min period {session_period} but full "
                f"analyze() gives {full.min_period_ps}"
            )
