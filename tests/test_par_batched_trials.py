"""Batched trials: ``ArrayTimingSession.trial(moves)`` against single trials.

A list of moves is evaluated as the rows of one multi-row propagation,
each row overriding only the coefficients its move touches.  The
contract is that the batch is indistinguishable from a loop of single
trials: the same periods bit for bit (on a fresh array session and as
``analyze()`` of each swapped netlist), the same first error, and no
change to the session's state or compiled coefficients.  Also pinned:
rows the array engine rejects fall back to ``analyze()``'s exact value
or error, and the flows' ``check_array`` policy reaches sizing.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cells import custom_library, rich_asic_library
from repro.cells.delay import LinearDelayArc
from repro.datapath import kogge_stone_adder
from repro.flows import AsicFlowOptions, FlowError, run_asic_flow
from repro.flows import cache as stage_cache
from repro.par.session import ArrayTimingSession, SessionCheckError
from repro.robust.guards import disable_guard, enable_all_guards
from repro.sizing.tilos import _next_drive_cell
from repro.sta import TimingError, analyze, asic_clock, register_boundaries
from repro.sta.array import CompiledTiming, assert_reports_match
from repro.synth import map_design, parse_expression
from repro.tech import CMOS250_ASIC, CMOS250_CUSTOM
from tests.test_par_session import analyze_swapped, same_period
from tests.test_sta_array import nldm_library

CLK = asic_clock(10000.0)

LIBRARIES = {
    "rich": rich_asic_library(CMOS250_ASIC),
    "nldm": nldm_library(),
    "continuous": custom_library(CMOS250_CUSTOM),
}
DESIGNS = {
    name: register_boundaries(kogge_stone_adder(4, lib), lib)
    for name, lib in LIBRARIES.items()
}


def combinational(module, library):
    return sorted(
        inst.name for inst in module.iter_instances()
        if not library.get(inst.cell_name).is_sequential
    )


def candidates(library, cell_name):
    """The cell itself (a no-op move) plus other drives of its base."""
    cell = library.get(cell_name)
    if library.continuous_factory is not None:
        return [cell_name] + [
            _next_drive_cell(library, cell_name, step)
            for step in (0.7, 1.4, 2.0)
        ]
    return [c.name for c in library.drives_of(cell.base_name)]


def snapshot(session):
    ct = session._compiled
    return (
        [t.copy() for t in ct._tables()] + [ct._slot_bad.copy()]
        + [session._state.arr.copy(), session._state.slw.copy(),
           session._state.best.copy()],
        {i.name: i.cell_name for i in session.module.iter_instances()},
    )


def assert_same_snapshot(before, after):
    arrays_b, cells_b = before
    arrays_a, cells_a = after
    assert cells_a == cells_b
    assert len(arrays_a) == len(arrays_b)
    for x, y in zip(arrays_b, arrays_a):
        np.testing.assert_array_equal(x, y)


#: One step: (instance picks, candidate picks, index of the move to
#: commit afterwards or None).  Picks are reduced modulo what exists.
STEP = st.tuples(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=10),
    st.lists(st.integers(0, 10_000), min_size=10, max_size=10),
    st.none() | st.integers(0, 9),
)


class TestBatchEqualsSingles:
    @pytest.mark.parametrize("lib_name", sorted(LIBRARIES))
    @settings(max_examples=12, deadline=None)
    @given(steps=st.lists(STEP, min_size=1, max_size=3),
           pool=st.integers(1, 6))
    def test_batch_matches_single_trials(self, lib_name, steps, pool):
        library = LIBRARIES[lib_name]
        design = DESIGNS[lib_name]
        # A small instance pool makes repeated instances likely.
        names = combinational(design, library)[:pool * 3:3]
        batched = ArrayTimingSession(design.clone(), library, CLK)
        for inst_picks, cell_picks, commit_pick in steps:
            moves = []
            for k, pick in enumerate(inst_picks):
                inst = names[pick % len(names)]
                cells = candidates(
                    library, batched.module.instance(inst).cell_name)
                moves.append((inst, cells[cell_picks[k] % len(cells)]))
            before = snapshot(batched)
            got = batched.trial(moves)
            assert_same_snapshot(before, snapshot(batched))
            fresh = ArrayTimingSession(batched.module.clone(), library, CLK)
            assert got == [fresh.trial(i, c) for i, c in moves]
            assert got == [
                analyze_swapped(batched.module, library, CLK, i, c)
                .min_period_ps for i, c in moves
            ]
            if commit_pick is not None:
                inst, cell = moves[commit_pick % len(moves)]
                committed = batched.commit(inst, cell)
                expected = analyze(batched.module, library, CLK)
                assert_reports_match(committed, expected)
                assert committed.min_period_ps == expected.min_period_ps

    def test_single_move_form_is_a_batch_of_one(self):
        library = LIBRARIES["rich"]
        design = DESIGNS["rich"]
        session = ArrayTimingSession(design.clone(), library, CLK)
        inst = combinational(design, library)[0]
        cell = candidates(library, design.instance(inst).cell_name)[-1]
        assert session.trial(inst, cell) == session.trial([(inst, cell)])[0]
        assert session.trial([]) == []


def poisoned_setup():
    """A fresh library whose strongest AND2 has NaN arcs, unused by a
    drive-1 design, plus four moves: good, poisoned, poisoned, good."""
    library = rich_asic_library(CMOS250_ASIC)
    module = map_design(
        {"y": parse_expression("(a & b) | (c & d) | (e & f)")},
        library, default_drive=1.0,
    )
    module = register_boundaries(module, library)
    used = {inst.cell_name for inst in module.iter_instances()}
    by_base = {}
    for name in combinational(module, library):
        by_base.setdefault(
            library.get(module.instance(name).cell_name).base_name, []
        ).append(name)
    base, victims = next(
        (b, v) for b, v in sorted(by_base.items()) if len(v) >= 2
    )
    strongest = library.drives_of(base)[-1]
    assert strongest.name not in used
    for pin in list(strongest.arcs):
        strongest.arcs[pin] = LinearDelayArc(
            parasitic_ps=float("nan"), effort_ps_per_ff=1.0)
    middle = library.drives_of(base)[1].name
    moves = [(victims[0], middle), (victims[1], strongest.name),
             (victims[0], strongest.name), (victims[1], middle)]
    return library, module, moves


def single_outcomes(period_of, moves):
    """Periods of ``period_of(instance, cell)`` over the moves, one at a
    time, or the first error."""
    periods = []
    for inst, cell in moves:
        try:
            periods.append(period_of(inst, cell))
        except TimingError as exc:
            return periods, (type(exc), str(exc))
    return periods, None


def analyze_outcomes(module, library, moves):
    """:func:`single_outcomes` of ``analyze()`` on each swapped netlist."""
    return single_outcomes(
        lambda inst, cell: analyze_swapped(
            module, library, CLK, inst, cell).min_period_ps,
        moves,
    )


class TestFallbackAndErrors:
    def test_poisoned_row_raises_the_object_engine_error(self):
        library, module, moves = poisoned_setup()
        session = ArrayTimingSession(module.clone(), library, CLK)
        _, error = analyze_outcomes(module, library, moves)
        assert error is not None
        before = snapshot(session)
        with pytest.raises(TimingError) as info:
            session.trial(moves)
        assert (type(info.value), str(info.value)) == error
        assert_same_snapshot(before, snapshot(session))

    def test_poisoned_row_gets_the_object_engine_value(self):
        library, module, moves = poisoned_setup()
        disable_guard("finite")
        try:
            session = ArrayTimingSession(module.clone(), library, CLK)
            got = session.trial(moves)
            want, error = analyze_outcomes(module, library, moves)
            fresh = ArrayTimingSession(module.clone(), library, CLK)
            singles = [fresh.trial(i, c) for i, c in moves]
        finally:
            enable_all_guards()
        assert error is None
        assert all(same_period(a, b) for a, b in zip(got, want))
        assert all(same_period(a, b) for a, b in zip(got, singles))
        assert len(got) == len(want) == len(moves)

    def test_sequential_move_raises_the_same_error(self):
        library, module, moves = poisoned_setup()
        dff = next(
            inst.name for inst in module.iter_instances()
            if library.get(inst.cell_name).is_sequential
        )
        comb_cell = module.instance(moves[0][0]).cell_name
        _, nan_error = analyze_outcomes(module, library, moves[1:2])
        cases = [
            [moves[0], (dff, comb_cell), moves[3]],   # sequential first
            [moves[1], (dff, comb_cell)],             # NaN row comes first
        ]
        # A loop of single trials raises the session's sequential guard
        # first, or analyze()'s error for a NaN row that comes first.
        for case, first in zip(cases, ("sequential", nan_error[1])):
            _, error = single_outcomes(
                ArrayTimingSession(module.clone(), library, CLK).trial, case)
            assert first in error[1]
            session = ArrayTimingSession(module.clone(), library, CLK)
            before = snapshot(session)
            with pytest.raises(TimingError) as info:
                session.trial(case)
            assert (type(info.value), str(info.value)) == error
            assert_same_snapshot(before, snapshot(session))


class TestFlowPolicyReachesSizing:
    def test_check_array_catches_a_corrupted_batch_row(self, monkeypatch):
        real = CompiledTiming.propagate

        def corrupt(self, slew, arrival, derates, rows=None):
            state = real(self, slew, arrival, derates, rows)
            if state.batch_size() > 1:
                state.arr[1] += 1.0
            return state

        monkeypatch.setattr(CompiledTiming, "propagate", corrupt)
        run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=4))  # unseen
        stage_cache.reset()  # array policy is not part of the cache key
        with pytest.raises(FlowError, match="batched trial") as info:
            run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=4,
                                          check_array=True))
        assert isinstance(info.value.__cause__, SessionCheckError)
