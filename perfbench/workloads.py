"""The benchmark's workloads, driven through the program's public API.

Each workload is a closed loop: :meth:`Workload.run_op` runs one
operation and returns the digest of what it simulated; the caller runs
the next only after it returns.  All inputs derive from the seed, which
goes into ``FlowOptions.seed`` and the Monte Carlo seed.

* ``gap_cpu16`` -- one three-way gap study of the 16-bit cpu execute
  stage (asic, structured, custom at default options) and its
  ``analyze_multi_gap`` decomposition.
* ``sweep_alu8`` -- an 8-point asic alu8 design-space sweep (sizing
  budgets x placement seeds) on 2 workers, with a fresh on-disk stage
  cache and the run ledger on in a per-pass directory.
* ``mc_cpu16`` -- netlist-backed die sampling of the placed cpu16
  netlist (``sample_chip_speeds_sta``, 20k dies per call).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile

from digest import (
    DigestMismatch,
    canonical_flow,
    canonical_gap,
    canonical_speeds,
    digest,
)


class CacheLeak(AssertionError):
    """A timed flow replayed a stage from the cache of an earlier one."""


class SweepTrouble(AssertionError):
    """The sweep supervisor retried, lost a worker or quarantined."""


def isolate() -> None:
    """Drop the stage cache and the memo tables, so no timed operation
    reuses work an earlier one did."""
    from repro.flows import cache as flow_cache
    from repro.par import memo

    flow_cache.reset()
    memo.reset()


def assert_no_cache_hits(results) -> None:
    hits = [f"{r.style}.{s.name}" for r in results
            for s in r.stage_records if s.cache_hit]
    if hits:
        raise CacheLeak(f"stage-cache hits in isolated flows: {hits}")


class Workload:
    """One named workload: set up once, then repeat :meth:`run_op`."""

    name = ""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Imports and inputs; everything before the first timed op."""

    def run_op(self) -> str:
        """One timed operation; returns the digest of its outputs."""
        raise NotImplementedError

    def tidy(self) -> None:
        """Untimed clean-up after an operation."""

    def oracle(self) -> str:
        """Untimed expected digest for a seed without a reference."""
        raise NotImplementedError


class GapStudy(Workload):
    """Three-way gap study: asic, structured, custom, serially."""

    name = "gap_cpu16"

    def __init__(self, seed: int, scratch: str, bits: int = 16) -> None:
        super().__init__(seed, scratch)
        self.bits = bits

    def setup(self) -> None:
        from repro.flows import (
            AsicFlowOptions,
            CustomFlowOptions,
            StructuredFlowOptions,
        )

        self.points = (
            AsicFlowOptions(workload="cpu", bits=self.bits, seed=self.seed),
            StructuredFlowOptions(workload="cpu", bits=self.bits,
                                  seed=self.seed),
            CustomFlowOptions(workload="cpu_macro", bits=self.bits,
                              seed=self.seed),
        )

    def _digest(self, results) -> str:
        from repro.core.gap import analyze_multi_gap

        return digest(canonical_gap(analyze_multi_gap(results, "asic")))

    def run_op(self) -> str:
        from repro.flows import registry

        results = []
        for options in self.points:
            isolate()
            backend = registry.backend_for_options(options)
            results.append(registry.run_backend_flow(backend, options))
        assert_no_cache_hits(results)
        return self._digest(results)

    def oracle(self) -> str:
        """The same study with every final STA checked against the
        object engine, its flows on 2 workers with caching off."""
        from repro.flows import cache as flow_cache
        from repro.flows import run_flow_sweep_report

        checked = [dataclasses.replace(o, check_array=True)
                   for o in self.points]
        isolate()
        flow_cache.set_enabled(False)
        try:
            report = run_flow_sweep_report(checked, workers=2,
                                           label="perfbench.oracle")
        finally:
            flow_cache.set_enabled(True)
        return self._digest(report.results)


class SweepStudy(Workload):
    """Asic design-space sweep: sizing budgets x placement seeds."""

    name = "sweep_alu8"
    BUDGETS = (30, 20, 10, 5)

    WORKERS = 2

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self._pass_dir: str | None = None

    def setup(self) -> None:
        from repro.flows import AsicFlowOptions

        self.points = [
            AsicFlowOptions(workload="alu", bits=8, sizing_moves=moves,
                            seed=seed)
            for moves in self.BUDGETS
            for seed in (self.seed, self.seed + 1)
        ]
        os.makedirs(self.scratch, exist_ok=True)

    def sweep(self, workers: int, check_array: bool = False):
        """One pass in a fresh cache and ledger directory."""
        from repro.flows import cache as flow_cache
        from repro.flows import run_flow_sweep_report
        from repro.obs import ledger

        points = self.points
        if check_array:
            points = [dataclasses.replace(o, check_array=True)
                      for o in points]
        self._pass_dir = tempfile.mkdtemp(dir=self.scratch)
        isolate()
        ledger.configure(os.path.join(self._pass_dir, "runs"))
        ledger.set_enabled(True)
        try:
            report = run_flow_sweep_report(
                points, workers=workers,
                cache_dir=os.path.join(self._pass_dir, "cache"),
            )
        finally:
            ledger.set_enabled(False)
            ledger.configure(None)
            flow_cache.configure(None)
        trouble = (report.retries, report.workers_lost, len(report.failures))
        if any(trouble):
            raise SweepTrouble(
                f"retries={trouble[0]} workers_lost={trouble[1]} "
                f"quarantined={trouble[2]}")
        return report

    def run_pass(self, workers: int, check_array: bool = False) -> str:
        report = self.sweep(workers, check_array)
        return digest([canonical_flow(r) for r in report.results])

    def run_op(self) -> str:
        return self.run_pass(self.WORKERS)

    def tidy(self) -> None:
        if self._pass_dir is not None:
            shutil.rmtree(self._pass_dir, ignore_errors=True)
            self._pass_dir = None

    def oracle(self) -> str:
        try:
            return self.run_pass(self.WORKERS, check_array=True)
        finally:
            self.tidy()


class MonteCarloStudy(Workload):
    """Batched Monte Carlo die sampling of the placed cpu16 netlist."""

    name = "mc_cpu16"
    DIES = 20_000
    #: Dies re-timed by the sequential loop in the oracle pass.
    ORACLE_DIES = 128

    def setup(self) -> None:
        from repro.cells.builder import rich_asic_library
        from repro.datapath.cpu import cpu_execute_stage
        from repro.physical.placement import place
        from repro.sta.clocking import asic_clock
        from repro.sta.sequential import register_boundaries
        from repro.tech.process import CMOS250_ASIC
        from repro.variation import montecarlo
        from repro.variation.components import MATURE_PROCESS

        self.montecarlo = montecarlo
        self.components = MATURE_PROCESS
        self.library = rich_asic_library(CMOS250_ASIC)
        self.module = register_boundaries(
            cpu_execute_stage(16, self.library, fast_adder=False),
            self.library,
        )
        placement = place(self.module, self.library, quality="careful",
                          seed=self.seed)
        self.wire = placement.parasitics(self.library)
        self.clock = asic_clock(20.0 * CMOS250_ASIC.fo4_delay_ps)

    def run_op(self) -> str:
        isolate()
        dist = self.montecarlo.sample_chip_speeds_sta(
            self.module, self.library, self.clock, self.components,
            count=self.DIES, seed=self.seed, wire=self.wire,
        )
        return digest(canonical_speeds(dist))

    def oracle(self) -> str:
        """Check the batched engine die for die against the sequential
        scalar loop (the repository's reference for it) on the first
        dies of the same stream, then take an untimed run."""
        import numpy as np

        from repro.sta.statistical import monte_carlo_min_period

        periods = {
            batched: monte_carlo_min_period(
                self.module, self.library, self.clock,
                sigma_fraction=self.components.intra_die,
                samples=self.ORACLE_DIES, seed=self.seed, wire=self.wire,
                batched=batched,
            )
            for batched in (True, False)
        }
        if not np.array_equal(periods[True], periods[False]):
            raise DigestMismatch(
                f"{self.name}: batched Monte Carlo differs from the "
                f"sequential loop on {self.ORACLE_DIES} dies")
        return self.run_op()


WORKLOADS = {cls.name: cls for cls in (GapStudy, SweepStudy,
                                       MonteCarloStudy)}
