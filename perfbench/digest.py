"""Canonical forms and digests of the benchmark's simulated outputs.

A timed operation is correct when the digest of what it simulated
matches the expected digest: the stored reference at the default seed,
or an untimed oracle pass at any other seed.  Only simulated values go
into a digest; wall/CPU/memory fields and the stage-cache bookkeeping
(``status``, ``cache_hit``), which legitimately differ between a cached
and an uncached run of the same point, are stripped first.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

#: Seed the stored reference digests were taken at (the flows' default).
DEFAULT_SEED = 1

#: Stage-record fields that describe how a stage ran, not what it made.
RUN_FIELDS = ("wall_s", "cpu_s", "peak_mem_kb", "status", "cache_hit")

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference.json")


class DigestMismatch(AssertionError):
    """Simulated outputs differ from what the oracle expects."""


def digest(payload: object) -> str:
    """SHA-256 of a JSON payload; NaN/inf are rejected, not hashed."""
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def canonical_flow(result) -> dict:
    """``FlowResult.to_dict()`` without the run-time stage fields."""
    payload = result.to_dict()
    payload["stages"] = [
        {k: v for k, v in stage.items() if k not in RUN_FIELDS}
        for stage in payload["stages"]
    ]
    return payload


def canonical_gap(report) -> dict:
    """Every flow of a ``MultiGapReport`` plus its pairwise ratios."""
    return {
        "flows": [canonical_flow(r) for r in report.results],
        "pairwise": report.to_dict()["pairwise"],
    }


def canonical_speeds(dist) -> dict:
    """A die population: the exact frequency array and nominal speed."""
    freqs = np.ascontiguousarray(dist.frequencies_mhz, dtype=np.float64)
    return {
        "count": int(freqs.size),
        "frequencies_sha256": hashlib.sha256(freqs.tobytes()).hexdigest(),
        "nominal_mhz": float(dist.nominal_mhz),
    }


def load_reference() -> dict[str, str]:
    """Stored digests at :data:`DEFAULT_SEED`, by workload."""
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)
