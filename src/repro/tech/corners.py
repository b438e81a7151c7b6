"""Process corners and derating.

Section 8 of the paper builds its "process variation and accessibility"
factor on the difference between *worst-case quoted* ASIC speeds and the
*typical or best* silicon a custom vendor ships:

* typical silicon is 60% to 70% faster than the worst-case numbers quoted
  for the slowest qualified fabrication plant;
* the fastest bins off the line are a further 20% to 40% faster than
  typical, but without ASIC-grade yield;
* overall the fastest custom chips may be ~90% faster than worst-case
  ASIC quotes in the same technology.

A *corner* captures one point in that spread as a multiplicative delay
derate: delay_at_corner = derate * nominal_delay.  Slower silicon has a
derate above one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.tech.process import TechnologyError


class CornerType(enum.Enum):
    """Named process corners, ordered slowest to fastest."""

    WORST_CASE = "worst_case"
    SLOW = "slow"
    TYPICAL = "typical"
    FAST = "fast"
    BEST_CASE = "best_case"


@dataclass(frozen=True)
class ProcessCorner:
    """One process/voltage/temperature corner.

    Attributes:
        corner_type: the named corner this instance represents.
        delay_derate: multiplier applied to nominal (typical) delay;
            > 1 is slower silicon, < 1 faster.
        vdd_factor: supply relative to nominal (low voltage slows gates).
        temperature_c: junction temperature in Celsius.
    """

    corner_type: CornerType
    delay_derate: float
    vdd_factor: float = 1.0
    temperature_c: float = 25.0

    def __post_init__(self) -> None:
        if self.delay_derate <= 0:
            raise TechnologyError("delay derate must be positive")
        if self.vdd_factor <= 0:
            raise TechnologyError("vdd factor must be positive")

    def apply(self, nominal_delay_ps: float) -> float:
        """Delay at this corner given the nominal (typical) delay."""
        if nominal_delay_ps < 0:
            raise TechnologyError("delay must be non-negative")
        return nominal_delay_ps * self.delay_derate

    def frequency_factor(self) -> float:
        """Clock-frequency multiplier relative to typical (1/derate)."""
        return 1.0 / self.delay_derate


def _corner(kind: CornerType, derate: float, vdd: float, temp: float) -> ProcessCorner:
    return ProcessCorner(
        corner_type=kind, delay_derate=derate, vdd_factor=vdd, temperature_c=temp
    )


#: Standard corner set, calibrated to Section 8's numbers: typical silicon
#: is taken as 1.0; the ASIC worst-case quote is 1.65x slower in delay
#: (i.e. typical is 65% faster, the middle of the paper's 60-70% range);
#: the best bins are 1.30x faster than typical (middle of 20-40%).
STANDARD_CORNERS: dict[CornerType, ProcessCorner] = {
    CornerType.WORST_CASE: _corner(CornerType.WORST_CASE, 1.65, 0.9, 125.0),
    CornerType.SLOW: _corner(CornerType.SLOW, 1.30, 0.95, 85.0),
    CornerType.TYPICAL: _corner(CornerType.TYPICAL, 1.00, 1.0, 25.0),
    CornerType.FAST: _corner(CornerType.FAST, 1.0 / 1.15, 1.05, 0.0),
    CornerType.BEST_CASE: _corner(CornerType.BEST_CASE, 1.0 / 1.30, 1.1, 0.0),
}


def get_corner(corner_type: CornerType) -> ProcessCorner:
    """Return the standard corner of the requested type."""
    return STANDARD_CORNERS[corner_type]


def evaluate_corners(
    module,
    library,
    clock,
    corners: dict[CornerType, ProcessCorner] | None = None,
    wire=None,
    **analyze_kwargs,
):
    """Timing reports across a corner set, one per corner.

    Runs the analysis at every corner's ``delay_derate``.  All corners
    share a single compiled timing graph and one batched propagation,
    each row bitwise equal to :func:`repro.sta.engine.analyze` at that
    derate.

    Returns:
        dict mapping each :class:`CornerType` to its TimingReport.
    """
    # Imported lazily: tech is a leaf package the sta/ layers import
    # from, so a module-level import would create a cycle.
    from repro.sta.array import batch_analyze

    if corners is None:
        corners = STANDARD_CORNERS
    types = list(corners)
    derates = [corners[t].delay_derate for t in types]

    reports = batch_analyze(
        module, library, clock, derates, wire=wire, **analyze_kwargs
    )
    return dict(zip(types, reports))


def worst_case_to_typical_speedup() -> float:
    """Frequency gain of typical silicon over the worst-case quote.

    Section 8: "Typical ASIC chips fabricated on a typical process may be
    60% to 70% faster than the worst case speeds quoted".  With our
    standard corners this returns 1.65.
    """
    return STANDARD_CORNERS[CornerType.WORST_CASE].delay_derate


def typical_to_best_speedup() -> float:
    """Frequency gain of the fastest bins over typical silicon.

    Section 8: "the fastest speeds produced in a plant may be 20% to 40%
    faster" -- our corners use the 30% midpoint.
    """
    return (
        STANDARD_CORNERS[CornerType.TYPICAL].delay_derate
        / STANDARD_CORNERS[CornerType.BEST_CASE].delay_derate
    )


def worst_case_to_best_speedup() -> float:
    """Frequency gain of the fastest custom bins over worst-case quotes.

    Section 8 concludes "the highest speed custom chips fabricated may be
    90% faster than an equivalent ASIC design running at worst case
    speeds"; 1.65 * 1.30 = 2.145 here, bracketing the paper's 1.9 from
    above because the paper assumes the custom vendor does not get the
    very best ASIC-grade worst-case line.
    """
    return worst_case_to_typical_speedup() * typical_to_best_speedup()
