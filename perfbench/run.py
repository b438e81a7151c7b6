"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload gap_cpu16 --seed 1 --seconds 20 \\
        --trace 0

Run from the root of a checkout.  Each run starts fresh interpreters
(``perfbench/worker.py``) with ``src`` on the path: a few set-up-only
probes and then the measured run, so ``setup_s`` (the median of their
set-up times) includes cold imports and ``peak_rss_mb`` belongs to this
workload alone.  With ``--trace 0`` the last line carries every
end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` every
per-layer metric.  The exit code is non-zero when a metric is missing,
the run failed, or an output did not match its reference.

    python3 perfbench/run.py --reference [--hash-seed N]

re-runs each workload once at the default seed and prints its output
digest next to the stored one (``perfbench/reference.json``); it exits
non-zero on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PREFIX = "PERFBENCH "

#: Set-up-only interpreters started before the measured one.
SETUP_PROBES = 2

#: Kill a worker that runs longer than this (the run must end in 180 s).
WORKER_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def worker_env(hash_seed: str | None = None) -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    # Keep git (the run ledger stamps revisions) inside the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return env


def run_worker(args: list[str], deadline: float,
               hash_seed: str | None = None) -> tuple[float, str | None]:
    """Start a worker; return (seconds until READY, final payload)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT, env=worker_env(hash_seed), stdout=subprocess.PIPE,
        text=True,
    )
    ready_s, payload = None, None
    # Reading blocks until the worker closes stdout, so a watchdog
    # enforces the deadline.
    watchdog = threading.Timer(max(deadline - time.perf_counter(), 1.0),
                               proc.kill)
    watchdog.start()
    try:
        for line in proc.stdout:
            if not line.startswith(PREFIX):
                continue
            body = line[len(PREFIX):].strip()
            if body == "READY":
                ready_s = time.perf_counter() - started
            else:
                payload = body
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready_s is None:
        raise BenchError(f"worker {args} exited with {proc.returncode}")
    return ready_s, payload


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise BenchError(f"no program sources under {ROOT}/src")
    spec = load_spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setup = [run_worker([*base, "--setup-only"], deadline)[0]
             for _ in range(SETUP_PROBES)]
    ready_s, payload = run_worker(
        [*base, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(ready_s)
    if payload is None:
        raise BenchError("worker printed no result")
    raw = json.loads(payload)
    values = raw.pop("layers", {})
    values.update(setup_s=statistics.median(setup), op_s=raw["op_s"],
                  peak_rss_mb=raw["peak_rss_mb"])
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


def check_reference(hash_seed: str | None) -> bool:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        stored = json.load(f)
    ok = True
    for workload in stored:
        _, payload = run_worker(
            ["--workload", workload, "--seed", "1", "--reference"],
            time.perf_counter() + WORKER_TIMEOUT_S, hash_seed)
        got = json.loads(payload)["digest"]
        same = got == stored[workload]
        ok &= same
        print(f"{workload:<12s} {got[:16]} "
              f"{'matches' if same else 'DIFFERS from ' + stored[workload][:16]}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true")
    parser.add_argument("--hash-seed")
    args = parser.parse_args(argv)
    try:
        if args.reference:
            return 0 if check_reference(args.hash_seed) else 1
        if not args.workload:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
