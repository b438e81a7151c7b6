"""One workload run in a fresh interpreter (started by ``run.py``).

Protocol on stdout: a ``PERFBENCH READY`` line once set-up is done (the
parent times set-up up to it), then, unless ``--setup-only``, one
``PERFBENCH {json}`` line with the run's raw results.  The program's
own output goes to stderr.

    PYTHONPATH=src python3 perfbench/worker.py --workload mc_cpu16 \\
        --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import sys
import time

from digest import DEFAULT_SEED, load_reference
from workloads import WORKLOADS, SweepStudy

PREFIX = "PERFBENCH "

#: Where traces and per-pass scratch directories go, under the checkout.
OUT_DIR = ".perfbench"


def measure(workload, seconds: float, on_op=None):
    """Closed loop: run operations until ``seconds`` have passed.

    Returns (walls, digests); a digest is None when the op raised.
    ``on_op(begin)`` brackets each op, outside its timing.
    """
    walls: list[float] = []
    digests: list[str | None] = []
    started = time.perf_counter()
    while True:
        if on_op is not None:
            on_op(True)
        t0 = time.perf_counter()
        try:
            result = workload.run_op()
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"perfbench: {workload.name} op failed: {exc!r}",
                  file=sys.stderr)
            result = None
        walls.append(time.perf_counter() - t0)
        if on_op is not None:
            on_op(False)
        workload.tidy()
        digests.append(result)
        if time.perf_counter() - started >= seconds:
            return walls, digests


def expected_digest(workload) -> str | None:
    """Reference digest at the default seed, else the oracle's."""
    if workload.seed == DEFAULT_SEED:
        return load_reference()[workload.name]
    try:
        return workload.oracle()
    except Exception as exc:
        print(f"perfbench: {workload.name} oracle failed: {exc!r}",
              file=sys.stderr)
        return None


def traced_phase(workload, seconds: float, untraced_walls: list[float],
                 import_s: float, trace_path: str) -> dict:
    """Wrap every layer, run the traced window, reduce to metrics."""
    from repro import obs

    import layers
    from spans import Recorder, install, uninstall

    recorder = Recorder()
    counters: dict[int, dict[str, float]] = {}
    before: dict[str, float] = {}
    worker_spans: dict[int, list] = {}

    def on_op(begin: bool) -> None:
        nonlocal before
        now = layers.counter_totals(obs.get_metrics())
        if begin:
            recorder.op += 1
            before = now
            return
        counters[recorder.op] = {k: now[k] - before[k] for k in now}
        # Flow roots shipped back from sweep workers (adopted spans).
        worker_spans[recorder.op] = [
            s for s in obs.get_tracer().finished()
            if s.name.count(".") == 1 and s.name.startswith("flow.")
        ]
        obs.get_tracer().reset()

    obs.enable()
    undo = install(recorder, layers.TARGETS)
    try:
        walls, digests = measure(workload, seconds, on_op)
        window_ops = set(range(1, recorder.op + 1))
        layer_ops, speedup = window_ops, 0.0
        if isinstance(workload, SweepStudy):
            # Pool workers' wrapped calls die with the workers, so the
            # layers under the sweep are read from a 1-worker pass.
            one_walls, one_digests = measure(
                _OneWorker(workload), 0.0, on_op)
            layer_ops = {recorder.op}
            walls_2 = [s.duration for s in recorder.spans
                       if s.op in window_ops and s.name == "par.sweep.run"]
            speedup = one_walls[0] / statistics.median(walls_2)
            digests += one_digests
    finally:
        uninstall(undo)
        obs.disable()
    recorder.write(trace_path)
    overhead = statistics.median(walls) / statistics.median(untraced_walls)
    return {
        "digests": digests,
        "layers": layers.layer_metrics(
            recorder.spans, counters, layer_ops, window_ops, worker_spans,
            speedup, overhead - 1.0, import_s,
        ),
    }


class _OneWorker:
    """A sweep workload's pass at ``workers=1`` (traced run only)."""

    def __init__(self, sweep: SweepStudy) -> None:
        self.sweep = sweep
        self.name = sweep.name

    def run_op(self) -> str:
        return self.sweep.run_pass(workers=1)

    def tidy(self) -> None:
        self.sweep.tidy()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--reference", action="store_true",
                        help="run one operation and print its digest")
    args = parser.parse_args(argv)

    # Program output must not mix with the protocol lines.
    protocol = sys.stdout
    sys.stdout = sys.stderr

    def emit(payload: str) -> None:
        protocol.write(PREFIX + payload + "\n")
        protocol.flush()

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  -- the CLI's cold import, timed
    import_s = time.perf_counter() - t0

    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"{args.workload}-{os.getpid()}")
    try:
        payload = run(args, scratch, import_s, emit)
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(scratch)
    if payload is not None:
        emit(json.dumps(payload))
    return 0


def run(args, scratch: str, import_s: float, emit) -> dict | None:
    """Set up, then (unless set-up only) measure and check."""
    workload = WORKLOADS[args.workload](args.seed, scratch)
    workload.setup()
    emit("READY")
    if args.setup_only:
        return None
    if args.reference:
        try:
            return {"digest": workload.run_op()}
        finally:
            workload.tidy()

    window = args.seconds / 2 if args.trace else args.seconds
    walls, digests = measure(workload, window)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    payload: dict = {"op_s": statistics.median(walls), "peak_rss_mb": rss_mb}
    if args.trace:
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        traced = traced_phase(workload, window, walls, import_s, trace_path)
        digests += traced["digests"]
        payload["layers"] = traced["layers"]
    expected = expected_digest(workload)
    failed = sum(d is None or d != expected for d in digests)
    payload.update(attempted=len(digests), failed=failed,
                   correct=expected is not None and failed == 0)
    return payload


if __name__ == "__main__":
    sys.exit(main())
