"""The traced run's layer map: which entry points are wrapped, and how
the recorded spans and counters reduce to the per-layer metrics.

Every per-layer metric is reported on every workload.  A layer a
workload never calls reads 0: that is the "control" reading the
interaction table in ``perfbench/README.md`` predicts for it.
"""

from __future__ import annotations

import statistics
from typing import Any

from spans import Span, Target, self_times

STYLES = ("asic", "structured", "custom")
STAGES = ("map", "place", "cts", "size", "sta", "quote")

#: Program counters (``repro.obs``) the traced run reads, per operation.
COUNTERS = (
    "sizing.tilos.trials",
    "par.session.trials",
    "par.session.commits",
    "sta.array.compile.calls",
    "sta.array.propagate.calls",
    "sta.array.fallbacks",
    "sta.analyze.calls",
)


def _arg(args: tuple, kwargs: dict, pos: int, name: str,
         default: Any = None) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _flow(args, kwargs, result) -> dict:
    style = _arg(args, kwargs, 0, "style")
    return {
        "style": getattr(style, "name", style),
        "stages": {r.name: r.wall_s for r in result.stage_records},
        "cache_hits": sum(r.cache_hit for r in result.stage_records),
    }


def _anneal(args, kwargs, result) -> dict:
    return {"steps": int(_arg(args, kwargs, 2, "steps")),
            "accepted": int(result)}


def _sizing(args, kwargs, result) -> dict:
    return {"moves": int(result.moves)}


def _arcs(compiled) -> int:
    return len(getattr(compiled, "_arc_inst", ()))


def _compile(args, kwargs, result) -> dict:
    return {"arcs": _arcs(result)}


def _propagate(args, kwargs, result) -> dict:
    derates = _arg(args, kwargs, 3, "derates")
    return {"arc_rows": _arcs(args[0]) * len(derates)}


def _sample(args, kwargs, result) -> dict:
    return {"dies": int(result.frequencies_mhz.size)}


def _sweep(args, kwargs, result) -> dict:
    return {
        "workers": int(_arg(args, kwargs, 2, "workers", 1)),
        "tasks": int(result.tasks),
        "retries": int(result.retries),
        "workers_lost": int(result.workers_lost),
    }


#: Each layer's public entry points, patched where the caller looks the
#: name up (a ``from x import f`` caller holds its own binding).
TARGETS: list[Target] = [
    ("repro.flows.registry", "run_backend_flow", "flows.engine.flow", _flow),
    ("repro.flows.asic", "place", "physical.placement.place", None),
    ("repro.flows.custom", "place", "physical.placement.place", None),
    ("repro.physical.placement", "anneal", "optimize.anneal", _anneal),
    ("repro.physical.fabric", "anneal", "optimize.anneal", _anneal),
    ("repro.flows.structured", "assign_slots",
     "physical.fabric.assign_slots", None),
    ("repro.flows.asic", "guarded_size_for_speed", "sizing.tilos.size",
     _sizing),
    ("repro.flows.custom", "guarded_size_for_speed", "sizing.tilos.size",
     _sizing),
    ("repro.flows.structured", "guarded_size_for_speed",
     "sizing.tilos.size", _sizing),
    ("repro.par.session", "ArrayTimingSession.trial", "par.session.trial",
     None),
    ("repro.par.session", "ArrayTimingSession.commit", "par.session.commit",
     None),
    ("repro.sta.array", "compile_timing", "sta.array.compile", _compile),
    ("repro.sta.array", "CompiledTiming.propagate", "sta.array.propagate",
     _propagate),
    ("repro.variation.montecarlo", "sample_chip_speeds_sta",
     "variation.sample_chip_speeds_sta", _sample),
    ("repro.obs.ledger", "record", "obs.ledger.record", None),
    ("repro.obs.ledger", "adopt", "obs.ledger.adopt", None),
    ("repro.flows.sweep", "run_sweep_report", "par.sweep.run", _sweep),
]


def counter_totals(registry) -> dict[str, float]:
    """Current value of each :data:`COUNTERS` entry, summed over labels."""
    totals = dict.fromkeys(COUNTERS, 0.0)
    for metric in registry.all_metrics():
        if metric.name in totals and metric.kind == "counter":
            totals[metric.name] = float(sum(metric.series().values()))
    return totals


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _occupancy(sweep: Span, worker_spans: list) -> tuple[float, float]:
    """(startup s, busy fraction) of one multi-worker sweep.

    ``worker_spans`` are the flow root spans the sweep runner shipped
    back from its workers (``repro.obs`` adopts them with their
    original clock readings): startup runs from the sweep's entry to
    the first point starting, and busy is the points' summed wall over
    ``workers x`` the sweep's wall.
    """
    inside = [s for s in worker_spans
              if sweep.start <= s.start_s and s.end_s <= sweep.end]
    if not inside:
        return 0.0, 0.0
    startup = min(s.start_s for s in inside) - sweep.start
    busy = sum(s.end_s - s.start_s for s in inside)
    return startup, _ratio(busy, sweep.attrs["workers"] * sweep.duration)


def layer_metrics(
    spans: list[Span],
    counters: dict[int, dict[str, float]],
    layer_ops: set[int],
    window_ops: set[int],
    worker_spans: dict[int, list],
    parallel_speedup: float,
    overhead_frac: float,
    import_s: float,
) -> dict[str, float]:
    """Reduce a traced run to the per-layer metrics.

    Args:
        spans: every span the traced run recorded.
        counters: program counter deltas, by operation id.
        layer_ops: operations whose whole work ran in this process
            (layer times, unit costs and counts come from these).
        window_ops: the traced window's operations (sweep supervision
            and ledger metrics come from these).
        worker_spans: flow root spans shipped back from sweep workers,
            by operation id.
        parallel_speedup: 1-worker over 2-worker sweep wall (0 when the
            workload runs no sweep).
        overhead_frac: traced over untraced operation wall, minus one.
        import_s: cold ``import repro.cli`` of this process.
    """
    selfs = self_times(spans)
    n_ops = max(len(layer_ops), 1)
    n_window = max(len(window_ops), 1)
    mine = [s for s in spans if s.op in layer_ops]

    def named(name: str, pool: list[Span] = mine) -> list[Span]:
        """Completed calls of one entry point (a call that raised has
        no attributes to read)."""
        return [s for s in pool
                if s.name == name and not s.attrs.get("raised")]

    def total(name: str, pool: list[Span] = mine) -> float:
        return sum(s.duration for s in named(name, pool))

    def count(key: str) -> float:
        return sum(counters.get(op, {}).get(key, 0.0) for op in layer_ops)

    def anneal_under(parent: str) -> tuple[float, int]:
        runs = [s for s in named("optimize.anneal")
                if s.parent is not None and spans[s.parent].name == parent]
        return (sum(s.duration for s in runs),
                sum(s.attrs["steps"] for s in runs))

    out: dict[str, float] = {"import.repro_cli_s": import_s}

    flows = named("flows.engine.flow")
    for style in STYLES:
        runs = [s for s in flows if s.attrs["style"] == style]
        out[f"flow.{style}_s"] = _median([s.duration for s in runs])
        for stage in STAGES:
            out[f"stage.{style}.{stage}_s"] = _median(
                [s.attrs["stages"].get(stage, 0.0) for s in runs])
    out["flows.engine.overhead_s"] = _median(
        [s.duration - sum(s.attrs["stages"].values()) for s in flows])

    place_anneal_s, place_steps = anneal_under("physical.placement.place")
    out["physical.placement.place_s"] = (
        total("physical.placement.place") / n_ops)
    out["physical.placement.us_per_move"] = 1e6 * _ratio(
        place_anneal_s, place_steps)
    anneals = named("optimize.anneal")
    steps = sum(s.attrs["steps"] for s in anneals)
    out["optimize.anneal.moves"] = steps / n_ops
    out["optimize.anneal.accept_ratio"] = _ratio(
        sum(s.attrs["accepted"] for s in anneals), steps)
    fabric_anneal_s, fabric_steps = anneal_under(
        "physical.fabric.assign_slots")
    out["physical.fabric.assign_slots_s"] = (
        total("physical.fabric.assign_slots") / n_ops)
    out["physical.fabric.us_per_move"] = 1e6 * _ratio(
        fabric_anneal_s, fabric_steps)

    size_s = total("sizing.tilos.size")
    trials = count("sizing.tilos.trials")
    moves = sum(s.attrs["moves"] for s in named("sizing.tilos.size"))
    out["sizing.tilos.size_s"] = size_s / n_ops
    out["sizing.tilos.trials"] = trials / n_ops
    out["sizing.tilos.moves"] = moves / n_ops
    out["sizing.tilos.trials_per_move"] = _ratio(trials, moves)
    out["sizing.tilos.us_per_trial"] = 1e6 * _ratio(size_s, trials)
    session_trials = count("par.session.trials")
    out["par.session.trials"] = session_trials / n_ops
    out["par.session.commits"] = count("par.session.commits") / n_ops
    out["par.session.us_per_trial"] = 1e6 * _ratio(
        total("par.session.trial"), session_trials)

    out["sta.array.compile.calls"] = count("sta.array.compile.calls") / n_ops
    out["sta.array.compile_s"] = total("sta.array.compile") / n_ops
    out["sta.array.propagate.calls"] = (
        count("sta.array.propagate.calls") / n_ops)
    propagate = named("sta.array.propagate")
    out["sta.array.propagate_s"] = total("sta.array.propagate") / n_ops
    out["sta.array.ns_per_arc_row"] = 1e9 * _ratio(
        sum(s.duration for s in propagate),
        sum(s.attrs["arc_rows"] for s in propagate))
    out["sta.array.fallbacks"] = count("sta.array.fallbacks") / n_ops
    out["sta.analyze.calls"] = count("sta.analyze.calls") / n_ops

    sampling = "variation.sample_chip_speeds_sta"
    samples = named(sampling)
    sample_s = sum(s.duration for s in samples)
    dies = sum(s.attrs["dies"] for s in samples)
    # Arcs of the netlist each sampling call compiled (its children).
    arcs: dict[int, int] = {}
    for child in spans:
        if child.name == "sta.array.compile" and child.parent is not None:
            arcs[child.parent] = max(arcs.get(child.parent, 0),
                                     child.attrs["arcs"])
    arc_dies = sum(arcs.get(i, 0) * s.attrs["dies"]
                   for i, s in enumerate(spans)
                   if s.op in layer_ops and s.name == sampling)
    out["variation.sample_chip_speeds_sta_s"] = sample_s / n_ops
    out["variation.dies_per_s"] = _ratio(dies, sample_s)
    out["variation.ns_per_arc_die"] = 1e9 * _ratio(sample_s, arc_dies)

    hits = sum(s.attrs["cache_hits"] for s in flows)
    stages = sum(len(s.attrs["stages"]) for s in flows)
    out["flows.cache.hits"] = hits / n_ops
    out["flows.cache.hit_ratio"] = _ratio(hits, stages)

    window = [s for s in spans if s.op in window_ops]
    sweeps = [s for s in named("par.sweep.run", window)
              if s.attrs["workers"] > 1]
    out["par.sweep.points_per_s"] = _ratio(
        sum(s.attrs["tasks"] for s in sweeps),
        sum(s.duration for s in sweeps))
    occupancy = [_occupancy(s, worker_spans.get(s.op, [])) for s in sweeps]
    out["par.sweep.startup_s"] = _median([o[0] for o in occupancy])
    out["par.sweep.busy_frac"] = _median([o[1] for o in occupancy])
    out["par.sweep.parallel_speedup"] = parallel_speedup
    out["par.sweep.retries"] = sum(s.attrs["retries"] for s in sweeps)
    out["par.sweep.workers_lost"] = sum(
        s.attrs["workers_lost"] for s in sweeps)

    ledger = [i for i, s in enumerate(spans) if s.op in window_ops
              and s.name.startswith("obs.ledger.")]
    out["obs.ledger.records"] = sum(
        spans[i].name == "obs.ledger.record" for i in ledger) / n_window
    out["obs.ledger.write_s"] = sum(selfs[i] for i in ledger) / n_window

    out["trace.overhead_frac"] = overhead_frac
    return out
