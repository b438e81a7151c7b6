"""Float reductions whose last bit does not depend on the Python version.

Python 3.12 made the builtin ``sum`` compensate float rounding
(Neumaier summation), so on 3.12+ a float ``sum`` can differ in its last
bits from the plain left-to-right addition of 3.10 and 3.11.  The
simulated outputs are pinned bit-for-bit (golden flow results, annealed
placement digests, the benchmark's reference digests), and one last-bit
change in an annealing delta flips a comparison and re-routes the RNG
stream.  Every float sum that feeds a simulated result therefore goes
through :func:`left_sum`; sums of ints and telemetry sums keep ``sum``.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Iterable, TypeVar

T = TypeVar("T", int, float)


def left_sum(values: Iterable[T]) -> T:
    """Add ``values`` strictly left to right, starting from int ``0``.

    The same result, type included, as the builtin ``sum`` of Python
    3.10/3.11 on every version: ``0`` for an empty input, an int for
    ints, and for floats one IEEE addition per item in order.
    """
    return reduce(add, values, 0)
