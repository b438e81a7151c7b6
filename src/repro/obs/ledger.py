"""Persistent run ledger: one structured record per flow/bench/sweep run.

The repo re-derives the paper's numeric chain on every run, but until
now nothing recorded runs *over time* -- a wall-time regression or a
claim drifting out of its tolerance band was invisible unless someone
eyeballed ``BENCH_paperbench.json``.  The ledger closes that loop:

* every ``flow``, ``bench``, ``sweep``, ``variation`` and paperbench
  invocation appends one schema-versioned JSON :class:`RunRecord` to a
  ledger directory (``.repro_runs/`` by default, ``REPRO_RUNS_DIR``
  overrides), written atomically so a crashed run can never leave a
  truncated record;
* records capture a config/tech *fingerprint* (so later runs of the
  same design point can be compared like-for-like), the git revision if
  one is available, per-stage wall times and cache-hit status from the
  engine's :class:`~repro.flows.results.StageRecord` list, flat metric
  snapshots, paper-claim values with their tolerance bands, aggregated
  span trees, and diagnostics;
* :mod:`repro.obs.regress` selects a baseline from the ledger (median
  of the last N matching-fingerprint runs) and flags wall-time, cache
  hit-rate and claim regressions; ``repro-gap runs
  list|show|diff|regress`` is the CLI surface.

Recording is off by default -- library callers pay a single flag check
-- and is switched on by the CLI (every ``repro-gap`` invocation unless
``--no-ledger``) and by tests.  Pool workers cannot append directly to
the parent's ledger file-ordering guarantees, so they *buffer*: the
sweep runner puts the worker ledger into buffering mode, ships the
buffered records back with the results, and the parent merges them
(see :func:`adopt`).
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import time
from dataclasses import dataclass, field, fields
from typing import Any, Iterable

#: Record schema version; bump on incompatible field changes.
SCHEMA_VERSION = 1

#: Default ledger directory (relative to the working directory).
DEFAULT_DIR = ".repro_runs"

#: Environment override for the ledger directory.
ENV_DIR = "REPRO_RUNS_DIR"

#: Filename prefix of ledger records (lexicographic order = run order).
_PREFIX = "run-"


class LedgerError(ValueError):
    """Raised for invalid ledger usage (unknown run ids, bad records)."""


@dataclass
class RunRecord:
    """One run's structured, JSON-ready execution record.

    Attributes:
        kind: run flavour -- ``"flow"``, ``"bench"``, ``"sweep"``,
            ``"variation"``, ``"stats"``, ``"paperbench"``.
        label: human-readable run label (``"asic.alu8"``).
        fingerprint: config/tech identity; runs sharing a fingerprint
            are comparable design points (policy knobs like fault
            injection are excluded upstream, so a chaos run still
            matches its clean baseline).
        schema: record schema version.
        run_id: sortable unique id, assigned at append time.
        created_s: Unix timestamp, assigned at append time.
        git_rev: short git revision of the working tree, if available.
        host: execution environment (python/numpy versions, platform,
            cpu count, git-dirty flag) captured at append time, so
            cross-machine comparisons can be flagged instead of
            silently mixed (see :func:`host_context`).
        tech: process technology name ("" when not applicable).
        config: the run's full option/parameter dict.
        wall_s: end-to-end wall time of the run.
        stages: per-stage execution dicts (name, status, wall_s,
            cache_hit, fingerprint) from the stage-graph engine.
        metrics: flat ``{str: scalar}`` metric snapshot (same shape as
            ``BENCH_*.json``).
        claims: paper-claim snapshot ``{claim: {value, lo, hi, ok}}``.
        spans: aggregated span-tree entries (see
            :func:`repro.obs.render.aggregate_spans`); empty when the
            run was not traced.
        diagnostics: structured findings from the run.
        worker: True when the record was produced in a pool worker and
            merged into the parent ledger.
        events_path: JSONL event-stream file the live bus was sinking
            to while this run executed ("" when the bus was off) --
            ``repro-gap top`` replays it.
        result: full result payload for runs that are *replayable* --
            ``kind="sweep.point"`` records carry the point's
            ``FlowResult.to_dict()`` so ``--resume-sweep`` can rebuild
            completed points without recomputing them.  Empty for
            record kinds that only exist for comparison.
        failures: failure/post-mortem payloads -- quarantined
            :class:`~repro.robust.retry.TaskFailure` dicts and
            escalated stall reports on sweep records -- so ``runs
            show`` supports post-mortems, not just successes.
    """

    kind: str
    label: str
    fingerprint: str
    schema: int = SCHEMA_VERSION
    run_id: str = ""
    created_s: float = 0.0
    git_rev: str | None = None
    host: dict = field(default_factory=dict)
    tech: str = ""
    config: dict = field(default_factory=dict)
    wall_s: float = 0.0
    stages: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    claims: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    worker: bool = False
    events_path: str = ""
    result: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def __post_init__(self) -> None:
        # Records leave the process as JSON, often from an atexit hook
        # where a serialisation error is lost; a numpy scalar (say the
        # ``numpy.bool_`` of comparing two numpy values) is not JSON.
        for f in fields(self):
            setattr(self, f.name, _plain(getattr(self, f.name)))

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "run_id": self.run_id,
            "kind": self.kind,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "created_s": self.created_s,
            "git_rev": self.git_rev,
            "host": self.host,
            "tech": self.tech,
            "config": self.config,
            "wall_s": self.wall_s,
            "stages": self.stages,
            "metrics": self.metrics,
            "claims": self.claims,
            "spans": self.spans,
            "diagnostics": self.diagnostics,
            "worker": self.worker,
            "events_path": self.events_path,
            "result": self.result,
            "failures": self.failures,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        if not isinstance(payload, dict):
            raise LedgerError(f"run record must be a dict, got "
                              f"{type(payload).__name__}")
        if payload.get("schema") != SCHEMA_VERSION:
            raise LedgerError(
                f"run record schema {payload.get('schema')!r} is not "
                f"{SCHEMA_VERSION}"
            )
        return cls(
            kind=str(payload.get("kind", "")),
            label=str(payload.get("label", "")),
            fingerprint=str(payload.get("fingerprint", "")),
            schema=SCHEMA_VERSION,
            run_id=str(payload.get("run_id", "")),
            created_s=float(payload.get("created_s", 0.0)),
            git_rev=payload.get("git_rev"),
            host=dict(payload.get("host") or {}),
            tech=str(payload.get("tech", "")),
            config=dict(payload.get("config") or {}),
            wall_s=float(payload.get("wall_s", 0.0)),
            stages=list(payload.get("stages") or []),
            metrics=dict(payload.get("metrics") or {}),
            claims=dict(payload.get("claims") or {}),
            spans=list(payload.get("spans") or []),
            diagnostics=list(payload.get("diagnostics") or []),
            worker=bool(payload.get("worker", False)),
            events_path=str(payload.get("events_path", "") or ""),
            result=dict(payload.get("result") or {}),
            failures=list(payload.get("failures") or []),
        )

    def stage_summary(self) -> str:
        """Compact ``"6 stages (2 cached, 1 failed)"``-style summary."""
        if not self.stages:
            return "-"
        cached = sum(1 for s in self.stages if s.get("cache_hit"))
        failed = sum(1 for s in self.stages if s.get("status") == "failed")
        parts = []
        if cached:
            parts.append(f"{cached} cached")
        if failed:
            parts.append(f"{failed} failed")
        detail = f" ({', '.join(parts)})" if parts else ""
        return f"{len(self.stages)} stages{detail}"


def _plain(value: Any) -> Any:
    """``value`` with every numpy scalar or array, also inside dicts,
    lists and tuples, replaced by the Python value ``json`` writes."""
    if type(value) is dict:
        return {_plain(key): _plain(item) for key, item in value.items()}
    if type(value) in (list, tuple):
        return type(value)(_plain(item) for item in value)
    if type(value).__module__ == "numpy" and hasattr(value, "tolist"):
        return value.tolist()
    return value


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


class RunLedger:
    """Append-only directory of run records.

    Args:
        directory: ledger directory; created on first append.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory

    def _path(self, run_id: str) -> str:
        return os.path.join(self.directory, f"{_PREFIX}{run_id}.json")

    def append(self, record: RunRecord) -> str:
        """Atomically write one record; returns the file path.

        Identity fields (``run_id``, ``created_s``, ``git_rev``) are
        assigned here if the record does not carry them already (a
        worker-buffered record does, so merged records keep the id they
        were born with).
        """
        finalize_identity(record)
        os.makedirs(self.directory, exist_ok=True)
        path = self._path(record.run_id)
        _atomic_write_text(
            path,
            json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n",
        )
        return path

    def paths(self) -> list[str]:
        """Record files, oldest first (run ids sort lexicographically)."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        return [
            os.path.join(self.directory, name)
            for name in sorted(names)
            if name.startswith(_PREFIX) and name.endswith(".json")
        ]

    def records(
        self,
        kind: str | None = None,
        fingerprint: str | None = None,
    ) -> list[RunRecord]:
        """Load every readable record, oldest first.

        Corrupt or foreign-schema files are skipped (the ledger is an
        observability aid; one bad file must not sink the readers).
        """
        out: list[RunRecord] = []
        for path in self.paths():
            try:
                with open(path) as handle:
                    record = RunRecord.from_dict(json.load(handle))
            except (OSError, ValueError):
                continue
            if kind is not None and record.kind != kind:
                continue
            if fingerprint is not None and record.fingerprint != fingerprint:
                continue
            out.append(record)
        return out

    def latest(self, kind: str | None = None) -> RunRecord | None:
        """Newest readable record (of a kind), or None."""
        records = self.records(kind=kind)
        return records[-1] if records else None

    def load(self, ref: str) -> RunRecord:
        """Load one record by run-id (unique prefix) or ``"last"``."""
        records = self.records()
        if not records:
            raise LedgerError(
                f"run ledger {self.directory!r} has no records"
            )
        if ref == "last":
            return records[-1]
        matches = [r for r in records if r.run_id.startswith(ref)]
        if not matches:
            raise LedgerError(
                f"no run record matches id {ref!r} in {self.directory!r}"
            )
        if len(matches) > 1:
            ids = [r.run_id for r in matches]
            raise LedgerError(
                f"run id {ref!r} is ambiguous: {ids}"
            )
        return matches[0]


# ---------------------------------------------------------------------------
# Module-level switch, buffering, and identity helpers.

_enabled = False
_explicit_dir: str | None = None
_buffer: list[dict] | None = None
_seq = 0
_git_rev: tuple[str | None] | None = None  # 1-tuple cache; None = unprobed
_host: tuple[dict] | None = None  # 1-tuple cache; None = unprobed


def runs_dir() -> str:
    """Active ledger directory: explicit > ``REPRO_RUNS_DIR`` > default."""
    if _explicit_dir is not None:
        return _explicit_dir
    return os.environ.get(ENV_DIR) or DEFAULT_DIR


def configure(directory: str | None) -> None:
    """Set (or with None, clear) the explicit ledger directory."""
    global _explicit_dir
    _explicit_dir = directory


def set_enabled(flag: bool) -> None:
    """Turn run recording on or off (either way leaves buffering mode)."""
    global _enabled, _buffer
    _enabled = bool(flag)
    _buffer = None


def enabled() -> bool:
    """Whether :func:`record` persists anything."""
    return _enabled


def get_ledger() -> RunLedger:
    """A ledger over the active directory."""
    return RunLedger(runs_dir())


def enable_buffering() -> None:
    """Record into an in-process buffer instead of the directory.

    Pool workers use this: the parent ships the drained buffer back and
    merges it with :func:`adopt`, so worker runs land in one ledger.
    """
    global _enabled, _buffer
    _enabled = True
    _buffer = []


def drain_buffer() -> list[dict]:
    """Return and clear the buffered record dicts (empty when direct)."""
    global _buffer
    drained = list(_buffer or [])
    if _buffer is not None:
        _buffer = []
    return drained


def git_revision() -> str | None:
    """Short git revision of the working tree, cached per process."""
    global _git_rev
    if _git_rev is None:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5.0,
            )
            rev = proc.stdout.strip() if proc.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            rev = None
        _git_rev = (rev or None,)
    return _git_rev[0]


def _git_dirty() -> bool | None:
    """Whether the working tree has uncommitted changes (None: unknown)."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return bool(proc.stdout.strip())


def host_context() -> dict:
    """Execution-environment fingerprint, cached per process.

    Wall-time baselines from one machine are meaningless on another;
    every record carries this so :func:`repro.obs.regress.compare` can
    warn on cross-host comparisons instead of silently mixing them.
    """
    global _host
    if _host is None:
        import platform
        import sys as _sys

        try:
            import numpy
            numpy_version = numpy.__version__
        except ImportError:  # pragma: no cover - numpy is a hard dep
            numpy_version = None
        _host = ({
            "python": platform.python_version(),
            "numpy": numpy_version,
            "platform": _sys.platform,
            "machine": platform.machine(),
            "node": platform.node(),
            "cpu_count": os.cpu_count(),
            "git_dirty": _git_dirty(),
        },)
    return dict(_host[0])


def finalize_identity(record: RunRecord) -> RunRecord:
    """Assign run_id / created_s / git_rev / host if the record lacks them."""
    global _seq
    if not record.run_id:
        _seq += 1
        record.run_id = (
            f"{time.time_ns():016x}-{os.getpid():05x}-{_seq:04d}"
        )
    if not record.created_s:
        record.created_s = time.time()
    if record.git_rev is None:
        record.git_rev = git_revision()
    if not record.host:
        record.host = host_context()
    return record


def record(rec: RunRecord) -> str | None:
    """Append a record if recording is on; returns the path (or None).

    In buffering mode the record is held in memory (identity already
    assigned, so merged records keep their worker-side ids); a write
    failure is reported on stderr but never takes the run down.
    """
    if not _enabled:
        return None
    finalize_identity(rec)
    if not rec.events_path:
        # Finalizer hook: runs executed under an active live-bus JSONL
        # sink record where their event stream landed, so `runs show`
        # can point `repro-gap top` at it.
        from repro.obs import live as _live

        rec.events_path = _live.sink_path() or ""
    if _buffer is not None:
        _buffer.append(rec.to_dict())
        return None
    try:
        return get_ledger().append(rec)
    except OSError as exc:
        import sys

        print(f"repro-gap: cannot write run record: {exc}",
              file=sys.stderr)
        return None


def adopt(buffered: Iterable[dict]) -> int:
    """Merge worker-buffered record dicts into the active ledger.

    Returns the number of records written.  Each record is marked
    ``worker=True``; malformed entries are skipped.
    """
    if not _enabled:
        return 0
    written = 0
    for payload in buffered:
        try:
            rec = RunRecord.from_dict(payload)
        except LedgerError:
            continue
        rec.worker = True
        if record(rec) is not None:
            written += 1
    return written


def reset_state() -> None:
    """Test hook: drop the switch, buffer, and explicit directory."""
    global _enabled, _explicit_dir, _buffer
    _enabled = False
    _explicit_dir = None
    _buffer = None


# ---------------------------------------------------------------------------
# Record builders.

def flow_record(ctx: Any, tech: Any, wall_s: float,
                root_span: Any = None) -> RunRecord:
    """Build a ``kind="flow"`` record from a completed flow context.

    Args:
        ctx: the engine's :class:`~repro.flows.engine.FlowContext`.
        tech: the run's process technology.
        wall_s: end-to-end flow wall time.
        root_span: the flow-level :class:`~repro.obs.trace.Span` when
            observability was on (its descendants become the record's
            aggregated span tree).
    """
    import dataclasses

    from repro.flows.options import digest, options_fingerprint
    from repro.obs import instrument
    from repro.obs.render import aggregate_spans

    options = ctx.options
    stages = [rec.to_dict() for rec in ctx.stage_records]
    metrics: dict = {f"note.{k}": v for k, v in sorted(ctx.notes.items())}
    if stages:
        hits = sum(1 for s in stages if s.get("cache_hit"))
        metrics["stage.count"] = len(stages)
        metrics["cache.stage.hits"] = hits
        metrics["cache.stage.hit_rate"] = round(hits / len(stages), 4)
    spans: list = []
    if root_span is not None and getattr(root_span, "index", None) is not None:
        spans = aggregate_spans(
            instrument.get_tracer().finished(), root_index=root_span.index
        )
    return RunRecord(
        kind="flow",
        label=f"{ctx.flow}.{options.workload}{options.bits}",
        fingerprint=digest({
            "kind": "flow",
            "flow": ctx.flow,
            "options": options_fingerprint(options),
            "tech": tech.name,
        }),
        tech=tech.name,
        config=dataclasses.asdict(options),
        wall_s=round(wall_s, 6),
        stages=stages,
        metrics=metrics,
        diagnostics=[d.to_dict() for d in ctx.diagnostics],
        spans=spans,
    )
