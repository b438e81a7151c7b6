"""Incremental STA session tests: equivalence with full analysis.

The load-bearing property: after *any* sequence of sizing moves, an
:class:`ArrayTimingSession`'s report and minimum period are exactly
what a from-scratch ``analyze()`` of the mutated netlist produces, and
each trial's period is ``analyze()`` of the netlist with that one move
swapped in.  The randomized tests drive seeded move sequences through
``check=True`` sessions (which re-verify every trial and commit); the
fault tests confirm the finite-arrival guard still fires when NaN
enters after construction, and that a session the array engine cannot
run degrades to full analyses with the same results.
"""

import math
import random

import numpy as np
import pytest

from repro.cells import rich_asic_library
from repro.cells.delay import LinearDelayArc
from repro.datapath import kogge_stone_adder, ripple_carry_adder
from repro.netlist.nets import is_port_ref
from repro.par.session import ArrayTimingSession, SessionCheckError
from repro.robust.faults import FaultInjector
from repro.robust.guards import disable_guard, enable_all_guards
from repro.sta import TimingError, analyze, asic_clock, register_boundaries
from repro.synth import map_design, parse_expression
from repro.tech import CMOS250_ASIC

CLK = asic_clock(20000.0)


def fresh_library():
    """A private library instance -- these tests mutate cells in place."""
    return rich_asic_library(CMOS250_ASIC)


def mapped(text, library, drive=1.0):
    return map_design({"y": parse_expression(text)}, library,
                      default_drive=drive)


def analyze_swapped(module, library, clock, instance, cell_name, **kwargs):
    """``analyze()`` of a clone of ``module`` with one cell swapped in:
    the reference every session trial is held to."""
    clone = module.clone()
    clone.replace_cell(instance, cell_name)
    return analyze(clone, library, clock, **kwargs)


def same_period(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def resizable_moves(module, library):
    """All legal (instance, variant_cell_name) swaps in a module."""
    moves = []
    for inst in module.iter_instances():
        cell = library.get(inst.cell_name)
        if cell.is_sequential:
            continue
        for variant in library.drives_of(cell.base_name):
            if variant.name != inst.cell_name:
                moves.append((inst.name, variant.name))
    return moves


def mover_victim_pair(module, library):
    """An (instance-to-resize, downstream-instance, its-input-pin) triple.

    Resizing the mover changes its output arrival, so the victim sits in
    the move's fanout cone and its input arc is on the re-timed path.
    """
    for inst in module.iter_instances():
        if library.get(inst.cell_name).is_sequential:
            continue
        for pin, net in inst.inputs.items():
            driver = module.driver_of(net)
            if driver is None or is_port_ref(driver):
                continue
            mover = driver[0]
            mover_cell = library.get(module.instance(mover).cell_name)
            if mover_cell.is_sequential:
                continue
            stronger = [
                c for c in library.drives_of(mover_cell.base_name)
                if c.name != mover_cell.name
            ]
            if stronger:
                return mover, stronger[-1].name, inst.name, pin
    raise AssertionError("test design has no mover/victim pair")


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_randomized_move_sequence_matches_full(self, seed):
        """Seeded random commits; check=True re-verifies every state."""
        library = fresh_library()
        module = mapped("(a & b & c & d) | (e & f & g & h)", library)
        session = ArrayTimingSession(module, library, CLK, check=True)
        rng = random.Random(seed)
        for _ in range(12):
            moves = resizable_moves(module, library)
            instance, cell_name = rng.choice(moves)
            assert session.trial(instance, cell_name) == analyze_swapped(
                module, library, CLK, instance, cell_name
            ).min_period_ps
            report = session.commit(instance, cell_name)
            full = analyze(module, library, CLK)
            assert report.min_period_ps == full.min_period_ps
            assert session.min_period_ps() == full.min_period_ps

    @pytest.mark.parametrize("generator,bits", [
        (ripple_carry_adder, 4),
        (kogge_stone_adder, 4),
    ])
    def test_datapath_designs_match_full(self, generator, bits):
        library = fresh_library()
        module = generator(bits, library)
        session = ArrayTimingSession(module, library, CLK, check=True)
        rng = random.Random(99)
        for _ in range(6):
            instance, cell_name = rng.choice(
                resizable_moves(module, library)
            )
            session.commit(instance, cell_name)
        assert session.min_period_ps() == analyze(
            module, library, CLK
        ).min_period_ps

    def test_registered_design_matches_full(self):
        library = fresh_library()
        comb = mapped("(a & b) | (c & d)", library)
        module = register_boundaries(comb, library)
        session = ArrayTimingSession(module, library, CLK, check=True)
        for instance, cell_name in resizable_moves(module, library)[:4]:
            session.commit(instance, cell_name)
        assert session.min_period_ps() == analyze(
            module, library, CLK
        ).min_period_ps

    def test_check_mode_detects_divergence(self):
        library = fresh_library()
        module = mapped("a & b & c", library)
        session = ArrayTimingSession(module, library, CLK, check=True)
        session._state.arr += 1.0
        session._state._dicts.clear()  # drop the cached report rows
        with pytest.raises(SessionCheckError):
            session._verify_against_full()


class TestTrials:
    def test_trial_restores_state(self):
        library = fresh_library()
        module = mapped("(a & b) | (c & d)", library)
        session = ArrayTimingSession(module, library, CLK, check=True)
        before = session.min_period_ps()
        cells_before = {
            inst.name: inst.cell_name for inst in module.iter_instances()
        }
        arrivals_before = session._state.arr.copy()
        changing = [
            (inst, cell) for inst, cell in resizable_moves(module, library)
            if session.trial(inst, cell) != before
        ]
        assert changing  # at least one move affects the critical path
        instance, cell_name = changing[0]
        assert session.trial(instance, cell_name) != before
        assert session.min_period_ps() == before
        assert np.array_equal(arrivals_before, session._state.arr)
        assert cells_before == {
            inst.name: inst.cell_name for inst in module.iter_instances()
        }

    def test_trial_matches_commit(self):
        library = fresh_library()
        module = mapped("(a & b) | (c & d)", library)
        session = ArrayTimingSession(module, library, CLK, check=True)
        instance, cell_name = resizable_moves(module, library)[0]
        trial_period = session.trial(instance, cell_name)
        report = session.commit(instance, cell_name)
        assert report.min_period_ps == trial_period

    def test_noop_commit_keeps_state(self):
        library = fresh_library()
        module = mapped("a & b", library)
        session = ArrayTimingSession(module, library, CLK, check=True)
        inst = next(module.iter_instances())
        report = session.commit(inst.name, inst.cell_name)
        assert report.min_period_ps == session.min_period_ps()

    def test_sequential_resize_rejected(self):
        library = fresh_library()
        comb = mapped("a & b", library)
        module = register_boundaries(comb, library)
        dff = next(
            inst.name for inst in module.iter_instances()
            if library.get(inst.cell_name).is_sequential
        )
        session = ArrayTimingSession(module, library, CLK, check=True)
        comb = next(c.name for c in library if not c.is_sequential)
        with pytest.raises(TimingError, match="sequential"):
            session.trial(dff, comb)

    def test_bad_derate_rejected(self):
        library = fresh_library()
        module = mapped("a & b", library)
        with pytest.raises(TimingError, match="derate"):
            ArrayTimingSession(module, library, CLK, delay_derate=math.inf,
                               check=True)


class TestFiniteGuard:
    def test_injected_nan_fails_session_construction(self):
        """FaultInjector NaN poisoning makes the array engine hand the
        session to analyze(), whose finite guard trips."""
        library = fresh_library()
        module = mapped("(a & b & c) | (d & e)", library)
        FaultInjector(seed=3).inject_nan(library, module)
        with pytest.raises(TimingError, match="[Nn]on-finite"):
            ArrayTimingSession(module, library, CLK, check=True)

    def test_nan_arc_fires_guard_through_incremental_path(self):
        """Poison an arc *after* construction: the next move whose cone
        re-evaluates it must raise (check mode re-derives the trial with
        analyze()), and the session must roll back."""
        library = fresh_library()
        module = mapped("(a & b & c) | (d & e)", library)
        session = ArrayTimingSession(module, library, CLK, check=True)
        before = session.min_period_ps()
        mover, stronger, victim, pin = mover_victim_pair(module, library)
        victim_cell = library.get(module.instance(victim).cell_name)
        saved_arc = victim_cell.arcs[pin]
        victim_cell.arcs[pin] = LinearDelayArc(
            parasitic_ps=float("nan"), effort_ps_per_ff=1.0
        )
        try:
            with pytest.raises(TimingError, match="[Nn]on-finite"):
                session.trial(mover, stronger)
        finally:
            victim_cell.arcs[pin] = saved_arc
        # The failed trial must have restored the pre-trial state.
        assert session.min_period_ps() == before
        assert session.min_period_ps() == analyze(
            module, library, CLK
        ).min_period_ps


class TestDegradedSession:
    """A design the array engine rejects runs on full analyses."""

    def poisoned(self):
        library = fresh_library()
        module = register_boundaries(
            mapped("(a & b & c) | (d & e) | (f & g)", library), library
        )
        FaultInjector(seed=3).inject_nan(library, module)
        return library, module

    def test_trials_and_commits_equal_analyze(self):
        library, module = self.poisoned()
        disable_guard("finite")
        try:
            session = ArrayTimingSession(module, library, CLK, check=True)
            assert session._degraded is not None
            reference = module.clone()
            periods = set()
            for instance, cell_name in resizable_moves(module, library):
                cells = {i.name: i.cell_name for i in module.iter_instances()}
                before = session.min_period_ps()
                got = session.trial(instance, cell_name)
                want = analyze_swapped(
                    reference, library, CLK, instance, cell_name
                ).min_period_ps
                assert same_period(got, want)
                periods.add(got)
                # The trial left the session and the netlist as they were.
                assert same_period(session.min_period_ps(), before)
                assert cells == {
                    i.name: i.cell_name for i in module.iter_instances()
                }
            assert len({p for p in periods if math.isfinite(p)}) > 1
            for instance, cell_name in resizable_moves(module, library)[:3]:
                report = session.commit(instance, cell_name)
                reference.replace_cell(instance, cell_name)
                full = analyze(reference, library, CLK)
                assert same_period(report.min_period_ps, full.min_period_ps)
                assert [s.instance for s in report.critical_path] == [
                    s.instance for s in full.critical_path
                ]
                assert same_period(session.min_period_ps(),
                                   full.min_period_ps)
        finally:
            enable_all_guards()
