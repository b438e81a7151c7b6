"""Array timing engine: exact equivalence with the object engine.

The contract under test is *bitwise* agreement: the vectorized engine
(:mod:`repro.sta.array`) preserves the object engine's floating-point
expression shapes, so every arrival, slew, trace and minimum period it
produces must equal ``analyze()``'s output exactly -- ``check=True``
modes assert that on every call, and these tests drive them across
libraries, workloads, derates, parasitics and NLDM tables.  The batched
Monte Carlo path must reproduce the sequential sampler's population
bit-for-bit from the same seed.  Also pinned here: the PR 8 bugfix
regressions (multi-output instance loads, memoization of keyword calls,
NaN-keyed cache entries).
"""

import dataclasses
import math
import random

import numpy as np
import pytest

from repro.cells import (
    LinearDelayArc,
    NLDMArc,
    custom_library,
    poor_asic_library,
    rich_asic_library,
)
from repro.datapath import kogge_stone_adder, ripple_carry_adder
from repro.netlist import Module
from repro.par import memo
from repro.par.session import ArrayTimingSession
from repro.robust.faults import FaultInjector
from repro.sta import (
    ArrayCheckError,
    TimingError,
    WireParasitics,
    analyze,
    analyze_array,
    asic_clock,
    batch_analyze,
    custom_clock,
    monte_carlo_min_period,
    register_boundaries,
    solve_min_period,
)
from repro.sta.array import assert_reports_match, clock_analyzer
from repro.sta.statistical import _gate_delay_stats
from repro.sta.timing_graph import TimingGraph
from repro.synth import map_design, parse_expression
from repro.tech import CMOS250_ASIC, CMOS250_CUSTOM
from repro.tech.corners import STANDARD_CORNERS, evaluate_corners
from tests.test_par_session import analyze_swapped

CLK = asic_clock(10000.0)


def mapped(text, library, drive=1.0):
    return map_design({"y": parse_expression(text)}, library,
                      default_drive=drive)


def nldm_library():
    """Rich library with every combinational arc converted to a table."""
    lib = rich_asic_library(CMOS250_ASIC)
    for cell in lib:
        if cell.is_sequential:
            continue
        for pin, arc in list(cell.arcs.items()):
            if isinstance(arc, LinearDelayArc):
                cell.arcs[pin] = NLDMArc.from_linear(arc, max_load_ff=200.0)
    return lib


def multi_output_module():
    """An instance driving two output nets with very different loads."""
    m = Module("multi_out")
    m.add_input("a")
    m.add_input("b")
    m.add_instance("g0", "NAND2_X2", inputs={"A": "a", "B": "b"},
                   outputs={"Y": "y1", "Z": "y2"})
    m.add_instance("s1", "INV_X1", inputs={"A": "y1"}, outputs={"Y": "o1"})
    m.add_instance("s2", "INV_X4", inputs={"A": "y2"}, outputs={"Y": "o2"})
    m.add_output("o1")
    m.add_output("o2")
    return m


def assert_exact(array_report, object_report):
    assert_reports_match(array_report, object_report)
    assert array_report.min_period_ps == object_report.min_period_ps


class TestArrayEquivalence:
    @pytest.mark.parametrize("library", [
        rich_asic_library(CMOS250_ASIC),
        poor_asic_library(CMOS250_ASIC),
        custom_library(CMOS250_CUSTOM),
    ], ids=["rich", "poor", "custom"])
    @pytest.mark.parametrize("builder", [
        lambda lib: register_boundaries(ripple_carry_adder(4, lib), lib),
        lambda lib: register_boundaries(kogge_stone_adder(8, lib), lib),
        lambda lib: mapped("(a & b) | (~c & d)", lib),
    ], ids=["ripple4", "kogge8", "mapped"])
    def test_matches_object_engine(self, library, builder):
        module = builder(library)
        obj = analyze(module, library, CLK)
        arr = analyze_array(module, library, CLK, check=True)
        assert_exact(arr, obj)

    @pytest.mark.parametrize("derate", [1.0, 1.65, 1.0 / 1.30])
    def test_derates_and_parasitics(self, derate):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        wire = WireParasitics(
            extra_cap_ff={"s0": 25.0}, extra_delay_ps={"s1": 140.0}
        )
        obj = analyze(module, lib, CLK, wire=wire, delay_derate=derate,
                      input_arrival_ps=150.0)
        arr = analyze_array(module, lib, CLK, wire=wire,
                            delay_derate=derate, input_arrival_ps=150.0,
                            check=True)
        assert_exact(arr, obj)

    def test_nldm_tables(self):
        lib = nldm_library()
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        obj = analyze(module, lib, CLK)
        arr = analyze_array(module, lib, CLK, check=True)
        assert_exact(arr, obj)

    def test_multi_output_instances(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = multi_output_module()
        obj = analyze(module, lib, CLK)
        arr = analyze_array(module, lib, CLK, check=True)
        assert_exact(arr, obj)

    def test_clock_analyzer_reuses_propagation(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(8, lib), lib)
        run = clock_analyzer(module, lib)
        for period in (500.0, 2000.0, 12000.0):
            clk = asic_clock(period)
            assert_exact(run(clk), analyze(module, lib, clk))

    def test_solve_min_period_array_matches_object(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        fast = solve_min_period(module, lib, CLK)
        assert_exact(fast, analyze(module, lib, fast.clock))
        check = solve_min_period(module, lib, CLK, check_array=True)
        assert check.min_period_ps == fast.min_period_ps

    def test_undriven_logic_raises_engine_error(self):
        lib = rich_asic_library(CMOS250_ASIC)
        m = Module("undriven")
        m.add_instance("g", "INV_X1", inputs={"A": "floating"},
                       outputs={"Y": "y"})
        m.add_output("y")
        with pytest.raises(TimingError, match="no arrival"):
            analyze_array(m, lib, CLK)

    def test_poisoned_arc_falls_back_to_object_engine(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        FaultInjector(3).inject_nan(lib, module)
        with pytest.raises(TimingError):
            analyze(module, lib, CLK)
        with pytest.raises(TimingError):
            analyze_array(module, lib, CLK)


class TestBatchedAnalysis:
    def test_batch_analyze_matches_per_derate(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        derates = [1.65, 1.30, 1.0, 1.0 / 1.15, 1.0 / 1.30]
        reports = batch_analyze(module, lib, CLK, derates)
        for derate, rep in zip(derates, reports):
            assert_exact(rep, analyze(module, lib, CLK,
                                      delay_derate=derate))

    def test_evaluate_corners_array_equals_object(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(8, lib), lib)
        fast = evaluate_corners(module, lib, CLK)
        assert set(fast) == set(STANDARD_CORNERS)
        for corner, report in fast.items():
            slow = analyze(module, lib, CLK,
                           delay_derate=STANDARD_CORNERS[corner].delay_derate)
            assert_exact(report, slow)


class TestBatchedMonteCarlo:
    @pytest.mark.parametrize("seed,sigma", [(1, 0.05), (9, 0.12)])
    def test_bitwise_equal_to_sequential(self, seed, sigma):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        wire = WireParasitics(extra_delay_ps={"s2": 90.0})
        batched = monte_carlo_min_period(
            module, lib, CLK, sigma_fraction=sigma, samples=333,
            seed=seed, wire=wire,
        )
        sequential = monte_carlo_min_period(
            module, lib, CLK, sigma_fraction=sigma, samples=333,
            seed=seed, wire=wire, batched=False,
        )
        assert np.array_equal(batched, sequential)

    def test_zero_sigma_is_deterministic(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        periods = monte_carlo_min_period(
            module, lib, CLK, sigma_fraction=0.0, samples=5, seed=2
        )
        assert len(set(periods.tolist())) == 1

    def test_multi_output_module_matches_sequential(self):
        # Regression: _gate_delay_stats used to take only the first
        # output net's load, diverging from the deterministic engine.
        lib = rich_asic_library(CMOS250_ASIC)
        module = multi_output_module()
        batched = monte_carlo_min_period(
            module, lib, CLK, samples=64, seed=5
        )
        sequential = monte_carlo_min_period(
            module, lib, CLK, samples=64, seed=5, batched=False
        )
        assert np.array_equal(batched, sequential)


class TestArraySession:
    def test_randomized_swap_sequence_matches_analyze(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(kogge_stone_adder(8, lib), lib)
        arr = ArrayTimingSession(module.clone(), lib, CLK, check=True)
        assert analyze(module, lib, CLK).min_period_ps == arr.min_period_ps()
        rng = random.Random(42)
        comb = [
            name for name in module.instances
            if not lib.get(module.instance(name).cell_name).is_sequential
        ]
        drives = ["X1", "X2", "X4"]
        for _ in range(15):
            name = rng.choice(comb)
            base = lib.get(arr.module.instance(name).cell_name).base_name
            candidates = [
                c.name for c in lib.drives_of(base)
            ]
            target = rng.choice(candidates)
            assert arr.trial(name, target) == analyze_swapped(
                arr.module, lib, CLK, name, target
            ).min_period_ps
            if rng.random() < 0.5:
                ra = arr.commit(name, target)
                assert_exact(ra, analyze(arr.module, lib, CLK))
        assert_reports_match(arr.report(), analyze(arr.module, lib, CLK))

    def test_sequential_swap_rejected(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        session = ArrayTimingSession(module, lib, CLK)
        seq = next(
            name for name in module.instances
            if lib.get(module.instance(name).cell_name).is_sequential
        )
        with pytest.raises(TimingError, match="sequential"):
            session.trial(seq, "INV_X1")

    def test_poisoned_design_degrades_to_analyze(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        FaultInjector(3).inject_nan(lib, module)
        with pytest.raises(TimingError):
            ArrayTimingSession(module, lib, CLK)


class TestFlowParity:
    def test_flow_check_array_passes(self):
        from repro.flows import AsicFlowOptions, run_asic_flow

        checked = run_asic_flow(
            AsicFlowOptions(bits=4, sizing_moves=4, check_array=True)
        )
        plain = run_asic_flow(AsicFlowOptions(bits=4, sizing_moves=4))
        assert checked.min_period_ps == plain.min_period_ps

    def test_fingerprint_ignores_array_policy(self):
        from repro.flows import AsicFlowOptions
        from repro.flows.options import options_fingerprint

        assert options_fingerprint(AsicFlowOptions()) == \
            options_fingerprint(AsicFlowOptions(check_array=True))


class TestCheckMode:
    def test_tampered_report_trips_check(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        report = analyze(module, lib, CLK)
        tampered = dataclasses.replace(
            report, min_period_ps=report.min_period_ps + 1.0
        )
        with pytest.raises(ArrayCheckError):
            assert_reports_match(tampered, report)

    def test_sub_tolerance_drift_is_accepted(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = register_boundaries(ripple_carry_adder(4, lib), lib)
        report = analyze(module, lib, CLK)
        nudged = dataclasses.replace(
            report, min_period_ps=report.min_period_ps + 1e-10
        )
        assert_reports_match(nudged, report)


class TestBugfixRegressions:
    def test_instance_load_sums_all_output_nets(self):
        lib = rich_asic_library(CMOS250_ASIC)
        module = multi_output_module()
        graph = TimingGraph(module, lib)
        assert graph.instance_load_ff("g0") == (
            graph.net_load_ff("y1") + graph.net_load_ff("y2")
        )

    def test_gate_delay_stats_uses_summed_load(self):
        # Was: only the first output net's load, so the statistical
        # model disagreed with the deterministic engine on fanout-split
        # instances.
        lib = rich_asic_library(CMOS250_ASIC)
        module = multi_output_module()
        graph = TimingGraph(module, lib)
        stats = _gate_delay_stats(graph, module, 0.05)
        load = graph.instance_load_ff("g0")
        cell = graph.cell_of("g0")
        for pin in ("A", "B"):
            assert stats[("g0", pin)][0] == cell.delay_ps(pin, load, 20.0)

    def test_memoized_accepts_keyword_arguments(self):
        # Was: the wrapper took *args only, so keyword calls raised
        # TypeError through the decorator.
        memo.reset()
        calls = []

        @memo.memoized("sizing.le")
        def f(x, y=1):
            calls.append((x, y))
            return x + y

        assert f(1, y=2) == 3
        assert f(1, y=2) == 3
        assert len(calls) == 2  # kwargs fall through, counted as misses
        assert memo.stats()["sizing.le"]["misses"] >= 2
        assert f(1, 2) == 3
        assert f(1, 2) == 3
        assert len(calls) == 3  # positional spelling still caches
        memo.reset()

    def test_arc_eval_skips_non_finite_keys(self):
        # Was: NaN-keyed entries were inserted but can never hit
        # (NaN != NaN), growing the cache until the bound wiped it.
        memo.reset()
        arc = LinearDelayArc(parasitic_ps=10.0, effort_ps_per_ff=2.0)
        memo.arc_eval(arc, 4.0, 20.0)
        assert memo.stats()["sta.arc"]["size"] == 1
        for _ in range(5):
            delay, _slew = memo.arc_eval(arc, float("nan"), 20.0)
            assert math.isnan(delay)
            memo.arc_eval(arc, 4.0, float("inf"))
        assert memo.stats()["sta.arc"]["size"] == 1
        memo.reset()
