"""Vectorized array-backed STA: levelized compilation + batched sweeps.

The object engine in :mod:`repro.sta.engine` walks Python dicts per pin;
profiling shows that interpreter dispatch -- not arithmetic -- is the
cost of an ``analyze()``.  This module compiles the timing graph once
into flat numpy arrays (a levelized CSR-style layout) so one analysis
becomes a handful of vectorized level sweeps, and a *batch* of analyses
(Monte Carlo samples, process corners) broadcasts a leading sample axis
through the same sweeps instead of running N sequential object-engine
passes.

Layout
------

Combinational instances are sorted by ``(level, topological position)``
where a net's level is the longest instance chain from any start net.
Every input pin becomes one *arc* in a flat array ordered by
``(level, instance, pin order)``; instances own contiguous arc segments
(CSR style), and each level owns a contiguous range of arcs, instances
and output nets.  Per-arc delay models are reduced to coefficients at
compile time, at the instance's actual load:

* linear arcs: ``delay = k_const + k_sens * slew`` with a constant
  output slew (the linear model's output slew is load-only);
* NLDM arcs: the bilinear table interpolation at a fixed load collapses
  to a 1-D row table over the slew axis; rows are precomputed with the
  *same* floating-point expression as :func:`repro.cells.delay._bilinear`
  so interpolation stays bitwise identical.

A level sweep gathers source arrivals/slews, evaluates all arcs at once,
and reduces per-instance segments with ``np.maximum.reduceat`` /
``np.minimum.reduceat``.  Max/min of floats is exact (no rounding), and
the first-max tie-break of the object engine is reproduced by taking the
minimum arc index among equality matches -- so arrivals, slews *and* the
critical-path trace are bitwise equal to ``analyze()``.

Batch rows share the compiled structure, and each row may also replace
the coefficients of a few arcs (``propagate(..., rows)`` with
:meth:`CompiledTiming.capture` overrides).  A sizing session evaluates
all trial swaps of one move this way, as the rows of one sweep.

Oracle fallback
---------------

Anything outside the engineered-equal happy path -- undriven logic,
non-finite loads or arrivals, negative slews, unknown arc models --
raises the internal :class:`_ArrayFallback` and the caller delegates the
whole analysis to the object engine, which reproduces the exact error
(or the exact NaN-shadowing semantics when the finite guard is off).
``check=`` mode runs the object engine anyway and asserts equality, the
same belt-and-braces pattern as ``ArrayTimingSession(check=True)``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro import obs
from repro.cells.delay import LinearDelayArc, NLDMArc, _bracket
from repro.cells.library import CellLibrary
from repro.netlist.graph import topological_order
from repro.netlist.module import Module
from repro.sta.clocking import Clock
from repro.sta.engine import (
    DEFAULT_INPUT_SLEW_PS,
    TimingReport,
    analyze,
    build_report,
)
from repro.sta.timing_graph import TimingError, TimingGraph, WireParasitics

#: Samples propagated per batch in the Monte Carlo kernel; bounds the
#: working set to ``chunk * nets`` floats while leaving the RNG stream
#: (drawn in sample order) bitwise identical to the sequential path.
MC_CHUNK = 2048


class ArrayCheckError(TimingError):
    """Vectorized and object-engine STA disagreed (``check=`` violation)."""


class _ArrayFallback(Exception):
    """Internal: this analysis needs the object engine (exact errors /
    NaN-shadowing semantics the vectorized path cannot reproduce)."""


def _kind_of(arc) -> int:
    if isinstance(arc, LinearDelayArc):
        return 0
    if isinstance(arc, NLDMArc):
        return 1
    return 2


def _widen(tables, width: int) -> list[np.ndarray]:
    """Pad captured table rows to ``width`` points, as ``_grow_tables``
    pads the compiled ones (an inf axis point is never bracketed).

    ``tables`` are in :meth:`CompiledTiming._tables` order.
    """
    out = []
    for i, t in enumerate(tables):
        if t.ndim == 2 and t.shape[1] < width:
            t = np.pad(t, ((0, 0), (0, width - t.shape[1])),
                       constant_values=np.inf if i == 5 else 0.0)
        out.append(t)
    return out


class ArcCoefficients(NamedTuple):
    """Captured coefficients of some arcs (:meth:`CompiledTiming.capture`).

    ``bad`` is True when an owning instance needs the object engine.
    The remaining fields are rows of the compiled coefficient arrays,
    in :meth:`CompiledTiming._tables` order.
    """

    arcs: np.ndarray
    bad: bool
    kind: np.ndarray
    k_const: np.ndarray
    k_sens: np.ndarray
    k_outslew: np.ndarray
    tab_n: np.ndarray
    tab_axis: np.ndarray
    tab_delay: np.ndarray
    tab_slew: np.ndarray


class CompiledTiming:
    """A timing graph compiled to levelized arrays.

    Construction never raises for *semantic* problems (undriven nets,
    poisoned tables): those set a fallback reason and every
    :meth:`propagate` raises :class:`_ArrayFallback`, letting callers
    delegate to the object engine for the exact error.  Structure is
    immutable; coefficients can be re-derived for individual instances
    after a cell swap with :meth:`refresh` (what array sizing sessions
    do on a commit), or captured as one batch row's override without
    changing the compiled arrays with :meth:`capture` (what they do for
    each trial).
    """

    def __init__(
        self,
        module: Module,
        library: CellLibrary,
        wire: WireParasitics | None = None,
        output_load_ff: float | None = None,
    ) -> None:
        self.module = module
        self.library = library
        self.graph = TimingGraph(module, library, wire, output_load_ff)
        self._fallback: str | None = None
        obs.count("sta.array.compile.calls")
        self._build_structure()
        if self._fallback is None:
            self._build_coefficients()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _build_structure(self) -> None:
        graph = self.graph
        module = self.module
        order = topological_order(module, graph.sequential_cell_names())

        net_id: dict[str, int] = {}

        def nid(net: str) -> int:
            got = net_id.get(net)
            if got is None:
                got = len(net_id)
                net_id[net] = got
            return got

        start = graph.start_nets()
        input_ids = [nid(n) for n, k in start.items() if k == "input"]
        start_ids = [nid(n) for n in start]

        reg_ids: list[int] = []
        reg_clkq: list[float] = []
        for name in graph.sequential_instances():
            cell = graph.cell_of(name)
            inst = module.instance(name)
            for net in inst.outputs.values():
                reg_ids.append(nid(net))
                reg_clkq.append(cell.sequential.clk_to_q_ps)

        # Levelize in topological order; the walk also proves every comb
        # input is driven (the engine's first structural check).
        net_level: dict[str, int] = {net: 0 for net in start}
        comb: list[tuple[str, int]] = []
        for name in order:
            cell = graph.cell_of(name)
            if cell.is_sequential:
                continue
            inst = module.instance(name)
            if not inst.outputs:
                continue
            if not inst.inputs:
                # The object engine stores a None arrival here and fails
                # later in an untyped way; delegate rather than guess.
                self._fallback = f"instance {name!r} has outputs but no inputs"
                return
            lvl = 0
            for in_net in inst.inputs.values():
                got = net_level.get(in_net)
                if got is None:
                    self._fallback = (
                        f"net {in_net!r} feeding {name} has no arrival"
                    )
                    return
                if got > lvl:
                    lvl = got
            for net in inst.outputs.values():
                net_level[net] = lvl + 1
            comb.append((name, lvl))

        by_level = sorted(range(len(comb)), key=lambda i: (comb[i][1], i))

        arc_src: list[int] = []
        arc_wire: list[float] = []
        self._arc_inst: list[str] = []
        self._arc_pin: list[str] = []
        self._inst_names: list[str] = []
        seg_start: list[int] = []
        narcs: list[int] = []
        out_net: list[int] = []
        out_owner: list[int] = []
        levels: list[dict] = []
        prev_lvl = None
        for slot, ci in enumerate(by_level):
            name, lvl = comb[ci]
            if lvl != prev_lvl:
                levels.append(
                    {"a0": len(arc_src), "i0": slot, "o0": len(out_net)}
                )
                prev_lvl = lvl
            inst = module.instance(name)
            self._inst_names.append(name)
            seg_start.append(len(arc_src))
            narcs.append(len(inst.inputs))
            for pin, in_net in inst.inputs.items():
                arc_src.append(net_id[in_net])
                arc_wire.append(graph.wire.delay(in_net))
                self._arc_inst.append(name)
                self._arc_pin.append(pin)
            for net in inst.outputs.values():
                out_net.append(nid(net))
                out_owner.append(slot)
            levels[-1].update(
                {"a1": len(arc_src), "i1": slot + 1, "o1": len(out_net)}
            )

        self._net_ids = net_id
        self._n_nets = len(net_id)
        self._net_names = [None] * len(net_id)
        for net, i in net_id.items():
            self._net_names[i] = net
        self._input_ids = np.asarray(input_ids, dtype=np.int64)
        self._start_ids = np.asarray(start_ids, dtype=np.int64)
        self._reg_ids = np.asarray(reg_ids, dtype=np.int64)
        self._reg_clkq = np.asarray(reg_clkq)
        self._arc_src = np.asarray(arc_src, dtype=np.int64)
        self._arc_wire = np.asarray(arc_wire)
        self._inst_seg = np.asarray(seg_start, dtype=np.int64)
        self._inst_narcs = np.asarray(narcs, dtype=np.int64)
        self._out_net = np.asarray(out_net, dtype=np.int64)
        self._out_owner = np.asarray(out_owner, dtype=np.int64)
        self._slot_of = {n: i for i, n in enumerate(self._inst_names)}
        self._arc_ids = np.arange(len(arc_src))
        self._level_a0 = np.asarray([lv["a0"] for lv in levels],
                                    dtype=np.int64)
        for lv in levels:
            lv["src"] = self._arc_src[lv["a0"]:lv["a1"]]
            lv["wire"] = self._arc_wire[lv["a0"]:lv["a1"]]
            lv["segs"] = self._inst_seg[lv["i0"]:lv["i1"]] - lv["a0"]
            lv["counts"] = self._inst_narcs[lv["i0"]:lv["i1"]]
            lv["onet"] = self._out_net[lv["o0"]:lv["o1"]]
            lv["owner"] = self._out_owner[lv["o0"]:lv["o1"]] - lv["i0"]
        self._levels = levels

        n_arcs = len(arc_src)
        self._kind = np.zeros(n_arcs, dtype=np.int8)
        self._k_const = np.full(n_arcs, np.nan)
        self._k_sens = np.full(n_arcs, np.nan)
        self._k_outslew = np.full(n_arcs, np.nan)
        self._slot_bad = np.zeros(len(self._inst_names), dtype=bool)
        self._tab_p = 0
        self._tab_n = np.zeros(n_arcs, dtype=np.int64)
        self._tab_axis = np.empty((n_arcs, 0))
        self._tab_delay = np.empty((n_arcs, 0))
        self._tab_slew = np.empty((n_arcs, 0))

    def _net_id(self, net: str) -> int | None:
        return self._net_ids.get(net)

    def _grow_tables(self, points: int) -> None:
        pad = points - self._tab_p
        self._tab_axis = np.pad(
            self._tab_axis, ((0, 0), (0, pad)), constant_values=np.inf
        )
        self._tab_delay = np.pad(self._tab_delay, ((0, 0), (0, pad)))
        self._tab_slew = np.pad(self._tab_slew, ((0, 0), (0, pad)))
        self._tab_p = points

    def _build_coefficients(self) -> None:
        for slot in range(len(self._inst_names)):
            self._refresh_slot(slot)

    def _refresh_slot(self, slot: int) -> None:
        name = self._inst_names[slot]
        inst = self.module.instance(name)
        cell = self.graph.cell_of(name)
        load = self.graph.instance_load_ff(name)
        bad = not (math.isfinite(load) and load >= 0.0)
        a = int(self._inst_seg[slot])
        for pin in inst.inputs:
            try:
                arc = cell.arc(pin)
            except Exception:
                self._slot_bad[slot] = True
                return
            kind = _kind_of(arc)
            self._kind[a] = kind
            if kind != 0:
                # The level sweep evaluates the linear form on every arc
                # and overwrites the table arcs, so a non-linear arc's
                # linear coefficients must never look valid.
                self._k_const[a] = self._k_sens[a] = np.nan
                self._k_outslew[a] = np.nan
            if kind == 0:
                # Same grouping as LinearDelayArc.delay_ps: the load
                # term folds into the constant, the slew term stays.
                self._k_const[a] = (
                    arc.parasitic_ps + arc.effort_ps_per_ff * load
                )
                self._k_sens[a] = arc.slew_sensitivity
                self._k_outslew[a] = max(
                    arc.min_output_slew_ps,
                    arc.slew_ratio
                    * (arc.parasitic_ps + arc.effort_ps_per_ff * load),
                )
                if not bad and not math.isfinite(self._k_const[a]):
                    bad = True
            elif kind == 1:
                if bad:
                    a += 1
                    continue
                n = len(arc.slew_axis_ps)
                if n > self._tab_p:
                    self._grow_tables(n)
                lo, hi, t = _bracket(arc.load_axis_ff, load)
                self._tab_n[a] = n
                self._tab_axis[a, :n] = arc.slew_axis_ps
                self._tab_axis[a, n:] = np.inf
                for r in range(n):
                    drow = arc.delay_table_ps[r]
                    srow = arc.slew_table_ps[r]
                    # Bitwise-identical to _bilinear's row interpolation
                    # at this load.
                    self._tab_delay[a, r] = drow[lo] * (1 - t) + drow[hi] * t
                    self._tab_slew[a, r] = srow[lo] * (1 - t) + srow[hi] * t
                if not (
                    np.isfinite(self._tab_delay[a, :n]).all()
                    and np.isfinite(self._tab_slew[a, :n]).all()
                ):
                    bad = True
            else:
                # Unknown arc model: only the object engine evaluates it
                # faithfully (including its exceptions).
                bad = True
            a += 1
        self._slot_bad[slot] = bad

    def refresh(self, instance_names) -> None:
        """Re-derive loads and arc coefficients for changed instances.

        Call after ``module.replace_cell`` + ``graph.rebind`` with the
        swapped instance and the drivers of its input nets (their loads
        changed).  Names without a combinational slot are ignored.
        """
        for name in instance_names:
            slot = self._slot_of.get(name)
            if slot is not None:
                self._refresh_slot(slot)

    def _tables(self) -> list[np.ndarray]:
        """The per-arc coefficient arrays, in :class:`ArcCoefficients`
        field order."""
        return [
            self._kind, self._k_const, self._k_sens, self._k_outslew,
            self._tab_n, self._tab_axis, self._tab_delay, self._tab_slew,
        ]

    def capture(self, instance_names) -> ArcCoefficients:
        """Coefficients of these instances' arcs under the module's
        current cells, leaving the compiled coefficients unchanged.

        Called while a move's swap is in the module (after
        ``graph.rebind``), this is that move's batch-row override for
        :meth:`propagate`.  Pass the swapped instance and the drivers of
        its input nets; names without a combinational slot are ignored.
        """
        slots = [self._slot_of[n] for n in instance_names
                 if n in self._slot_of]
        arcs = np.concatenate([
            self._arc_ids[self._inst_seg[s]:
                          self._inst_seg[s] + self._inst_narcs[s]]
            for s in slots
        ]) if slots else self._arc_ids[:0]
        saved = [t[arcs] for t in self._tables()]
        saved_bad = self._slot_bad[slots]
        for slot in slots:
            self._refresh_slot(slot)
        tables = self._tables()
        got = ArcCoefficients(arcs, bool(self._slot_bad[slots].any()),
                              *(t[arcs] for t in tables))
        for t, old in zip(tables, _widen(saved, self._tab_p)):
            t[arcs] = old
        self._slot_bad[slots] = saved_bad
        return got

    def _select(self, b: int, rows) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-row arc -> coefficient-slot index plus the slot tables.

        Slot ``i < n_arcs`` is arc ``i``'s compiled coefficients; each
        override in ``rows`` appends its arcs' slots after those, and
        only its own row selects them.
        """
        tables = self._tables()
        n_arcs = self._arc_ids.size
        if rows is None or all(r is None for r in rows):
            return np.broadcast_to(self._arc_ids, (b, n_arcs)), tables
        if len(rows) != b:
            raise ValueError(f"{len(rows)} override rows for {b} derates")
        sel = np.tile(self._arc_ids, (b, 1))
        parts: list[list[np.ndarray]] = [[t] for t in tables]
        end = n_arcs
        for r, over in enumerate(rows):
            if over is None:
                continue
            if over.bad:
                raise _ArrayFallback("a trial row needs the object engine")
            sel[r, over.arcs] = np.arange(end, end + over.arcs.size)
            end += over.arcs.size
            for part, value in zip(parts, _widen(over[2:], self._tab_p)):
                part.append(value)
        return sel, [np.concatenate(p) for p in parts]

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------

    def propagate(
        self,
        input_slew_ps: float,
        input_arrival_ps: float,
        derates: np.ndarray,
        rows=None,
    ) -> "ArrayState":
        """Batched level-sweep propagation; one batch row per derate.

        ``rows`` optionally gives batch row ``r`` its own coefficients:
        ``rows[r]`` is None (the compiled coefficients) or an
        :class:`ArcCoefficients` from :meth:`capture` that replaces the
        coefficients of its arcs in that row only.  Every row keeps the
        scalar engine's operation order, so it is bitwise equal to a
        single-row propagation of the same coefficients.

        Raises:
            _ArrayFallback: when exact equivalence with the object
                engine cannot be guaranteed (the caller must delegate).
        """
        if self._fallback is not None:
            raise _ArrayFallback(self._fallback)
        if self._slot_bad.any():
            which = self._inst_names[int(np.nonzero(self._slot_bad)[0][0])]
            raise _ArrayFallback(f"instance {which!r} needs the object engine")
        if not (math.isfinite(input_slew_ps) and input_slew_ps >= 0.0):
            raise _ArrayFallback(f"input slew {input_slew_ps}")
        derates = np.asarray(derates, dtype=np.float64)
        b = derates.shape[0]
        sel, (kind, k_const, k_sens, k_outslew, tab_n, tab_axis, tab_delay,
              tab_slew) = self._select(b, rows)
        obs.count("sta.array.propagate.calls")
        n = self._n_nets
        arr = np.full((b, n), np.nan)
        marr = np.full((b, n), np.nan)
        slw = np.full((b, n), np.nan)
        best = np.full((b, n), -1, dtype=np.int64)
        arr[:, self._input_ids] = input_arrival_ps
        marr[:, self._input_ids] = input_arrival_ps
        slw[:, self._start_ids] = input_slew_ps
        if self._reg_ids.size:
            launch = self._reg_clkq[None, :] * derates[:, None]
            arr[:, self._reg_ids] = launch
            marr[:, self._reg_ids] = launch
        acc = np.zeros(b)
        row_ids = np.arange(b)[:, None]
        kc = k_const[sel]
        ks = k_sens[sel]
        ko = k_outslew[sel]
        is_nld = kind[sel] == 1
        level_nld = (
            np.logical_or.reduceat(is_nld.any(axis=0), self._level_a0)
            .tolist() if self._levels else []
        )
        for lv, any_nld in zip(self._levels, level_nld):
            a0, a1 = lv["a0"], lv["a1"]
            k = a1 - a0
            src = lv["src"]
            sl_in = slw[:, src]
            # The linear form on every arc (NaN on table arcs, which the
            # table evaluation below overwrites).
            delay = kc[:, a0:a1] + ks[:, a0:a1] * sl_in
            outsl = ko[:, a0:a1]
            if any_nld:
                m = is_nld[:, a0:a1]
                g = sel[:, a0:a1][m]
                ax = tab_axis[g]
                x = sl_in[m]
                hi = (ax < x[:, None]).sum(axis=1)
                hi = np.clip(hi, 1, tab_n[g] - 1)
                lo = hi - 1
                c = np.arange(g.size)
                alo = ax[c, lo]
                t = (x - alo) / (ax[c, hi] - alo)
                dt = tab_delay[g]
                st = tab_slew[g]
                delay[m] = dt[c, lo] * (1 - t) + dt[c, hi] * t
                outsl = outsl.copy()
                outsl[m] = st[c, lo] * (1 - t) + st[c, hi] * t
            delay *= derates[:, None]
            w = lv["wire"][None, :] * derates[:, None]
            at = (arr[:, src] + w) + delay
            mat = (marr[:, src] + w) + delay
            acc += at.sum(axis=1)
            segs = lv["segs"]
            mx = np.maximum.reduceat(at, segs, axis=1)
            mn = np.minimum.reduceat(mat, segs, axis=1)
            cand = np.where(
                at == np.repeat(mx, lv["counts"], axis=1),
                self._arc_ids[:k][None, :],
                k,
            )
            firsts = np.minimum.reduceat(cand, segs, axis=1)
            np.minimum(firsts, k - 1, out=firsts)
            bslew = outsl[row_ids, firsts]
            onet, owner = lv["onet"], lv["owner"]
            arr[:, onet] = mx[:, owner]
            marr[:, onet] = mn[:, owner]
            slw[:, onet] = bslew[:, owner]
            best[:, onet] = (firsts + a0)[:, owner]
        if not np.isfinite(acc).all():
            # Cannot reproduce the engine's NaN handling (named error
            # with the guard on, max-shadowing with it off) with
            # np.maximum, which propagates NaN.
            raise _ArrayFallback("non-finite arrival accumulator")
        # Negative slews would make the object engine raise
        # DelayModelError at the consuming arc; delegate for that error.
        if self._out_net.size and not (slw[:, self._out_net] >= 0.0).all():
            raise _ArrayFallback("negative output slew")
        return ArrayState(
            self, arr, marr, slw, best, derates,
            float(input_slew_ps), float(input_arrival_ps),
        )


class ArrayState:
    """Propagated arrivals for one batch of derates over one compile."""

    def __init__(
        self, compiled, arr, marr, slw, best, derates, input_slew,
        input_arrival,
    ) -> None:
        self.compiled = compiled
        self.arr = arr
        self.marr = marr
        self.slw = slw
        self.best = best
        self.derates = derates
        self._input_slew = input_slew
        self._input_arrival = input_arrival
        self._dicts: dict[int, tuple] = {}

    def batch_size(self) -> int:
        return int(self.derates.shape[0])

    def row(self, r: int) -> "ArrayState":
        """Batch row ``r`` as a batch of one (copied, so the batch can
        be freed)."""
        sl = slice(r, r + 1)
        return ArrayState(
            self.compiled, self.arr[sl].copy(), self.marr[sl].copy(),
            self.slw[sl].copy(), self.best[sl].copy(),
            self.derates[sl].copy(), self._input_slew, self._input_arrival,
        )

    def _as_dicts(self, row: int) -> tuple[dict, dict, dict, dict, dict]:
        got = self._dicts.get(row)
        if got is not None:
            return got
        ct = self.compiled
        nets = ct._net_names
        arrival: dict[str, float] = {}
        min_arrival: dict[str, float] = {}
        slew: dict[str, float] = {}
        trace: dict[str, tuple[str, str] | None] = {}
        launch_q: dict[str, float] = {}
        for i in ct._start_ids:
            net = nets[i]
            trace[net] = None
            slew[net] = self._input_slew
        for i in ct._input_ids:
            net = nets[i]
            arrival[net] = self._input_arrival
            min_arrival[net] = self._input_arrival
        arr_row = self.arr[row]
        marr_row = self.marr[row]
        slw_row = self.slw[row]
        best_row = self.best[row]
        for i in ct._reg_ids:
            net = nets[i]
            value = float(arr_row[i])
            arrival[net] = value
            min_arrival[net] = value
            launch_q[net] = value
        for i in ct._out_net:
            net = nets[i]
            arrival[net] = float(arr_row[i])
            min_arrival[net] = float(marr_row[i])
            slew[net] = float(slw_row[i])
            a = int(best_row[i])
            trace[net] = (ct._arc_inst[a], ct._arc_pin[a])
        got = (arrival, min_arrival, slew, trace, launch_q)
        self._dicts[row] = got
        return got

    def report(self, clock: Clock, row: int = 0) -> TimingReport:
        """Assemble the engine-identical report for one batch row."""
        from repro.sta.engine import _finite_guard_active

        arrival, min_arrival, slew, trace, launch_q = self._as_dicts(row)
        return build_report(
            self.compiled.graph, clock, arrival, min_arrival, trace,
            launch_q, delay_derate=float(self.derates[row]),
            finite_guard=_finite_guard_active(),
        )


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------


def _check_derate(delay_derate: float) -> None:
    if not (delay_derate > 0.0) or math.isinf(delay_derate):
        raise TimingError(
            f"delay derate must be a positive finite number, "
            f"got {delay_derate}"
        )


def compile_timing(
    module: Module,
    library: CellLibrary,
    wire: WireParasitics | None = None,
    output_load_ff: float | None = None,
) -> CompiledTiming:
    """Compile a netlist+library binding into levelized timing arrays."""
    return CompiledTiming(module, library, wire, output_load_ff)


def clock_analyzer(
    module: Module,
    library: CellLibrary,
    wire: WireParasitics | None = None,
    input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    input_arrival_ps: float = 0.0,
    output_load_ff: float | None = None,
    delay_derate: float = 1.0,
    check: bool = False,
):
    """One compile + propagate, reusable across clocks.

    Arrival propagation does not depend on the clock (skew/borrowing
    enter at the endpoint accounting), so iterative period solving can
    pay for the propagation once and re-derive only reports.  Returns a
    ``run(clock) -> TimingReport`` callable; if the design needs the
    object engine the callable delegates to :func:`analyze` per call.
    """
    _check_derate(delay_derate)

    def run_object(clk: Clock) -> TimingReport:
        return analyze(
            module, library, clk, wire=wire, input_slew_ps=input_slew_ps,
            input_arrival_ps=input_arrival_ps, output_load_ff=output_load_ff,
            delay_derate=delay_derate,
        )

    try:
        compiled = compile_timing(module, library, wire, output_load_ff)
        state = compiled.propagate(
            input_slew_ps, input_arrival_ps, np.array([delay_derate])
        )
    except _ArrayFallback:
        obs.count("sta.array.fallbacks")
        return run_object

    def run(clk: Clock) -> TimingReport:
        obs.count("sta.array.analyze.calls")
        report = state.report(clk)
        if check:
            assert_reports_match(report, run_object(clk))
        return report

    return run


def analyze_array(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    wire: WireParasitics | None = None,
    input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    input_arrival_ps: float = 0.0,
    output_load_ff: float | None = None,
    delay_derate: float = 1.0,
    check: bool = False,
) -> TimingReport:
    """Drop-in vectorized :func:`repro.sta.engine.analyze`.

    Same arguments, same report, same errors; ``check=True`` also runs
    the object engine and raises :class:`ArrayCheckError` on any
    divergence (exact critical path, arrivals within 1e-9 ps).
    """
    return clock_analyzer(
        module, library, wire=wire, input_slew_ps=input_slew_ps,
        input_arrival_ps=input_arrival_ps, output_load_ff=output_load_ff,
        delay_derate=delay_derate, check=check,
    )(clock)


def batch_analyze(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    derates,
    wire: WireParasitics | None = None,
    input_slew_ps: float = DEFAULT_INPUT_SLEW_PS,
    input_arrival_ps: float = 0.0,
    output_load_ff: float | None = None,
) -> list[TimingReport]:
    """One report per derate from a single compile + batched propagate.

    The workhorse behind corner evaluation: the derate is a batch axis,
    so five corners cost one propagation.  Each row is bitwise equal to
    ``analyze(..., delay_derate=d)``.
    """
    derates = [float(d) for d in derates]
    for d in derates:
        _check_derate(d)
    try:
        compiled = compile_timing(module, library, wire, output_load_ff)
        state = compiled.propagate(
            input_slew_ps, input_arrival_ps, np.asarray(derates)
        )
    except _ArrayFallback:
        obs.count("sta.array.fallbacks")
        return [
            analyze(
                module, library, clock, wire=wire,
                input_slew_ps=input_slew_ps,
                input_arrival_ps=input_arrival_ps,
                output_load_ff=output_load_ff, delay_derate=d,
            )
            for d in derates
        ]
    obs.count("sta.array.analyze.calls", len(derates))
    return [state.report(clock, row) for row in range(len(derates))]


def monte_carlo_min_period_batched(
    module: Module,
    library: CellLibrary,
    clock: Clock,
    sigma_fraction: float = 0.05,
    samples: int = 200,
    seed: int = 1,
    wire: WireParasitics | None = None,
) -> np.ndarray:
    """Batched Monte Carlo minimum periods; bitwise equal to the
    sequential :func:`repro.sta.statistical.monte_carlo_min_period`.

    All samples in a chunk propagate as one matrix pass (sample axis
    through the level sweeps).  The RNG stream is consumed in the exact
    per-sample order of the sequential loop -- a vector draw of ``n``
    normals consumes the generator identically to ``n`` scalar draws --
    so the returned periods match element for element.
    """
    from repro.sta.statistical import _gate_delay_stats

    if samples < 1:
        raise TimingError("need at least one sample")
    profiling = obs.enabled()
    start_s = obs.MONOTONIC() if profiling else 0.0
    compiled = compile_timing(module, library, wire)
    graph = compiled.graph
    fallback = compiled._fallback is not None or compiled._slot_bad.any()
    if not fallback:
        gate_stats = _gate_delay_stats(graph, module, sigma_fraction)
        keys = sorted(gate_stats)
        nominals = np.array([gate_stats[k][0] for k in keys])
        key_pos = {k: i for i, k in enumerate(keys)}
        arc_key = np.array(
            [
                key_pos[(inst, pin)]
                for inst, pin in zip(compiled._arc_inst, compiled._arc_pin)
            ],
            dtype=np.int64,
        )
        fallback = not (
            math.isfinite(sigma_fraction)
            and np.isfinite(nominals).all()
            and np.isfinite(compiled._arc_wire).all()
        )
    if fallback:
        # The sequential path silently max-shadows NaNs and raises raw
        # KeyErrors on undriven nets; reproduce it rather than guess.
        from repro.sta.statistical import monte_carlo_min_period

        obs.count("sta.array.fallbacks")
        return monte_carlo_min_period(
            module, library, clock, sigma_fraction=sigma_fraction,
            samples=samples, seed=seed, wire=wire, batched=False,
        )

    seq_rows = []
    for name in graph.sequential_instances():
        cell = graph.cell_of(name)
        inst = module.instance(name)
        out_ids = np.array(
            [compiled._net_id(net) for net in inst.outputs.values()],
            dtype=np.int64,
        )
        seq_rows.append((cell.sequential.clk_to_q_ps, out_ids))

    ep_net: list[int] = []
    ep_wire: list[float] = []
    ep_setup: list[float] = []
    ep_borrow: list[float] = []
    ep_isreg: list[bool] = []
    for kind, detail in graph.endpoints():
        if kind == "port":
            net = str(detail)
            ep_setup.append(0.0)
            ep_borrow.append(0.0)
            ep_isreg.append(False)
        else:
            inst_name, pin = detail
            cell = graph.cell_of(inst_name)
            net = module.instance(inst_name).inputs[pin]
            ep_setup.append(cell.sequential.setup_ps)
            ep_borrow.append(
                clock.borrow_window_ps if cell.sequential.transparent else 0.0
            )
            ep_isreg.append(True)
        idx = compiled._net_id(net)
        if idx is None:
            # Endpoint fed by a net no one defines: the sequential loop
            # raises a KeyError at the first sample; let it.
            from repro.sta.statistical import monte_carlo_min_period

            obs.count("sta.array.fallbacks")
            return monte_carlo_min_period(
                module, library, clock, sigma_fraction=sigma_fraction,
                samples=samples, seed=seed, wire=wire, batched=False,
            )
        ep_net.append(idx)
        ep_wire.append(graph.wire.delay(net))
    ep_net_a = np.asarray(ep_net, dtype=np.int64)
    ep_wire_a = np.asarray(ep_wire)
    ep_setup_a = np.asarray(ep_setup)
    ep_borrow_a = np.asarray(ep_borrow)
    ep_isreg_a = np.asarray(ep_isreg, dtype=bool)
    if not (
        np.isfinite(ep_wire_a).all()
        and math.isfinite(clock.skew_ps)
        and math.isfinite(clock.borrow_window_ps)
    ):
        from repro.sta.statistical import monte_carlo_min_period

        obs.count("sta.array.fallbacks")
        return monte_carlo_min_period(
            module, library, clock, sigma_fraction=sigma_fraction,
            samples=samples, seed=seed, wire=wire, batched=False,
        )

    rng = np.random.default_rng(seed)
    n_keys = len(keys)
    n_seq = len(seq_rows)
    periods = np.empty(samples)
    for c0 in range(0, samples, MC_CHUNK):
        cs = min(MC_CHUNK, samples - c0)
        draws = np.empty((cs, n_keys))
        jit = np.empty((cs, n_seq))
        for s in range(cs):
            # Exact stream order of the sequential loop: one arc-vector
            # draw, then one jitter per sequential instance.
            draws[s] = rng.normal(1.0, sigma_fraction, size=n_keys)
            jit[s] = rng.normal(1.0, sigma_fraction, size=n_seq)
        delays_k = np.maximum(nominals[None, :] * draws, 0.0)
        arrv = np.full((cs, compiled._n_nets), np.nan)
        arrv[:, compiled._input_ids] = 0.0
        for i, (clkq, out_ids) in enumerate(seq_rows):
            launch = np.maximum(clkq * jit[:, i], 0.0)
            arrv[:, out_ids] = launch[:, None]
        for lv in compiled._levels:
            a0, a1 = lv["a0"], lv["a1"]
            at = (
                (arrv[:, lv["src"]] + lv["wire"][None, :])
                + delays_k[:, arc_key[a0:a1]]
            )
            mx = np.maximum.reduceat(at, lv["segs"], axis=1)
            arrv[:, lv["onet"]] = mx[:, lv["owner"]]
        if ep_net_a.size:
            t = arrv[:, ep_net_a] + ep_wire_a[None, :]
            treg = ((t + ep_setup_a[None, :]) + clock.skew_ps) - ep_borrow_a[
                None, :
            ]
            t = np.where(ep_isreg_a[None, :], treg, t)
            periods[c0:c0 + cs] = t.max(axis=1)
        else:
            periods[c0:c0 + cs] = -np.inf
    if profiling:
        obs.count("sta.array.mc.samples", samples)
        obs.observe(
            "sta.array.mc.samples_per_sec",
            samples / max(obs.MONOTONIC() - start_s, 1e-9),
        )
    return periods


# ----------------------------------------------------------------------
# check= equivalence
# ----------------------------------------------------------------------

#: Absolute tolerance of the check mode; the implementation is designed
#: for bitwise equality, the tolerance only decouples the contract from
#: that stronger property.
CHECK_ATOL_PS = 1e-9


def _near(a: float, b: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= CHECK_ATOL_PS


def assert_reports_match(
    array_report: TimingReport, object_report: TimingReport
) -> None:
    """Raise :class:`ArrayCheckError` unless the two reports agree.

    Critical path and endpoint identities must match exactly; times are
    compared to :data:`CHECK_ATOL_PS`.
    """

    def fail(what: str) -> None:
        raise ArrayCheckError(f"array/object STA divergence: {what}")

    a, o = array_report, object_report
    if not _near(a.min_period_ps, o.min_period_ps):
        fail(f"min period {a.min_period_ps} vs {o.min_period_ps}")
    if (a.critical.kind, a.critical.name) != (o.critical.kind, o.critical.name):
        fail(f"critical endpoint {a.critical.name} vs {o.critical.name}")
    if len(a.endpoints) != len(o.endpoints):
        fail("endpoint counts differ")
    for ea, eo in zip(a.endpoints, o.endpoints):
        if (ea.kind, ea.name) != (eo.kind, eo.name):
            fail(f"endpoint order {ea.name} vs {eo.name}")
        for field in (
            "data_arrival_ps", "min_period_ps", "launch_overhead_ps",
            "capture_overhead_ps", "skew_ps", "borrow_ps",
        ):
            if not _near(getattr(ea, field), getattr(eo, field)):
                fail(f"endpoint {ea.name} {field}")
    if len(a.critical_path) != len(o.critical_path):
        fail("critical path lengths differ")
    for sa, so in zip(a.critical_path, o.critical_path):
        if (sa.instance, sa.cell, sa.through_pin) != (
            so.instance, so.cell, so.through_pin
        ):
            fail(f"path step {sa.instance}.{sa.through_pin}")
        if not (_near(sa.delay_ps, so.delay_ps)
                and _near(sa.arrival_ps, so.arrival_ps)):
            fail(f"path timing at {sa.instance}")
    if len(a.hold_violations) != len(o.hold_violations):
        fail("hold violation counts differ")
    for ha, ho in zip(a.hold_violations, o.hold_violations):
        if ha.endpoint != ho.endpoint:
            fail(f"hold endpoint {ha.endpoint} vs {ho.endpoint}")
        if not (_near(ha.min_arrival_ps, ho.min_arrival_ps)
                and _near(ha.required_ps, ho.required_ps)):
            fail(f"hold timing at {ha.endpoint}")
