"""Flow option records: the shared base and the per-style extensions.

The implementation styles share most of their knobs (workload, width,
pipelining, sizing budget, seed, failure policy, chaos hook); the base
:class:`FlowOptions` holds that common core so the per-style option
classes cannot drift apart again, and so the engine can fingerprint and
resume any flow generically (see :func:`options_fingerprint`).  Each
subclass is the registry key of its backend: the sweep runner resolves
a point's flow from its options class (see
:func:`repro.flows.registry.backend_for_options`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass

#: Option fields that select an execution *policy* rather than a design
#: point.  They are excluded from fingerprints: a run interrupted by an
#: injected fault must still be resumable with the fault disarmed, and a
#: keep_going re-run of a raise-mode flow shares its cached stages.
#: The array-engine check switch is policy too: it re-derives results
#: the array engine already guarantees, so it must not invalidate caches.
POLICY_FIELDS = ("on_error", "fault", "check_array")


@dataclass(frozen=True)
class FlowOptions:
    """Knobs common to every implementation flow.

    Attributes:
        workload: one of :data:`repro.flows.asic.WORKLOADS`.
        bits: datapath width.
        pipeline_stages: 1 = registered boundaries only.
        sizing_moves: post-layout resizing budget (0 = skip).
        seed: placement / Monte Carlo RNG seed.
        on_error: ``"raise"`` aborts on the first stage failure;
            ``"keep_going"`` records the failure into the result's
            diagnostics and degrades gracefully.
        fault: chaos hook -- name of a stage at which to trip an
            injected fault (testing/selftest only; None = off).
        check_array: cross-check every array analysis, sizing trial
            and commit against the object engine
            (:func:`repro.sta.engine.analyze`; slow, for CI smoke and
            debugging).
    """

    workload: str = "alu"
    bits: int = 8
    pipeline_stages: int = 1
    sizing_moves: int = 30
    seed: int = 1
    on_error: str = "raise"
    fault: str | None = None
    check_array: bool = False


@dataclass(frozen=True)
class AsicFlowOptions(FlowOptions):
    """Knobs of the ASIC flow (Sections 5, 6 and 8 levers).

    Attributes:
        rich_library: rich vs two-drive impoverished library (Section 6).
        careful_placement: good floorplanning/placement vs scatter
            (Section 5).
        speed_test: at-speed test instead of worst-case quote (Sec. 8.3).
    """

    rich_library: bool = True
    careful_placement: bool = True
    speed_test: bool = False


@dataclass(frozen=True)
class StructuredFlowOptions(FlowOptions):
    """Knobs of the structured-ASIC flow (prefab fabric, middle ground).

    Attributes:
        fabric_utilization: target maximum site utilization when picking
            the master; lower targets buy a bigger die (more prefab area
            wasted) but route with less congestion detour.
        careful_assignment: anneal the slot assignment after the greedy
            seed (the vendor's assignment tool vs a quick seed).
        speed_test: structured vendors bin-test the personalised parts,
            so at-speed quoting is the default (Section 8.3's lever,
            already pulled).
    """

    pipeline_stages: int = 2
    fabric_utilization: float = 0.6
    careful_assignment: bool = True
    speed_test: bool = True


@dataclass(frozen=True)
class CustomFlowOptions(FlowOptions):
    """Knobs of the custom flow (every lever of Sections 4-8 pulled).

    Attributes:
        target_cycle_fo4: pick the stage count that lands the cycle near
            this FO4 depth, the way real custom teams chose their pipe
            depth (Alpha 15 FO4, PowerPC 13 FO4).  None = fixed stages.
        use_latches: level-sensitive latches + multi-phase borrowing.
        use_domino: apply domino logic to the combinational critical path
            (Section 7; modelled via the measured family profile because
            full-netlist domino conversion is a custom manual step).
        flagship_silicon: sell the fast bins (Section 8) instead of the
            median.
    """

    workload: str = "alu_macro"
    pipeline_stages: int = 4
    sizing_moves: int = 60
    target_cycle_fo4: float | None = None
    use_latches: bool = True
    use_domino: bool = True
    flagship_silicon: bool = True


def digest(payload: object) -> str:
    """Stable short hash of a JSON-serializable payload."""
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def options_fingerprint(options: FlowOptions) -> str:
    """Design-point identity of an option record.

    Policy fields (:data:`POLICY_FIELDS`) are excluded, so a checkpoint
    written under fault injection can be resumed with the fault disarmed
    and still be recognised as the same run.
    """
    payload = {
        field.name: getattr(options, field.name)
        for field in dataclasses.fields(options)
        if field.name not in POLICY_FIELDS
    }
    payload["__class__"] = type(options).__name__
    return digest(payload)
