"""Simulated annealing over a pluggable move/cost interface.

Extracted from the continuous placer so every placement style shares
one annealer: the row-grid placer anneals pairwise position swaps, the
structured-ASIC placer anneals slot re-assignments, and both get the
same geometric cooling schedule and acceptance rule.

The loop is deliberately spartan because its exact RNG call sequence is
load-bearing: golden-result tests pin flow outputs bit-for-bit, so the
order of ``rng`` consumption (one ``propose`` per step, then *at most
one* ``rng.random()`` -- only for an uphill move) must never change.
Problems own their move proposal, cost delta and reversal; the annealer
owns temperature and acceptance.  It counts its moves and accepted
moves once per call (``optimize.anneal.moves`` / ``.accepted``), never
per move.
"""

from __future__ import annotations

import math
import random
from typing import Any, Protocol

from repro import obs

#: A move is whatever the problem's ``propose`` returns; the annealer
#: only threads it through ``apply``/``revert`` opaquely.
AnnealMove = Any


class AnnealProblem(Protocol):
    """The move/cost interface the annealer optimises over."""

    def propose(self, rng: random.Random) -> AnnealMove:
        """Draw a candidate move (must consume a deterministic amount
        of ``rng`` state for a given problem state)."""
        ...

    def apply(self, move: AnnealMove) -> float:
        """Apply the move to the problem state; return the cost delta
        (negative = improvement)."""
        ...

    def revert(self, move: AnnealMove) -> None:
        """Undo a just-applied move (called only for rejected moves)."""
        ...


def anneal(
    problem: AnnealProblem,
    rng: random.Random,
    steps: int,
    temperature: float,
    final_fraction: float = 0.02,
) -> int:
    """Anneal ``problem`` for ``steps`` moves; return the accepted count.

    Geometric cooling from ``temperature`` down to
    ``final_fraction * temperature``; uphill moves are accepted with the
    Metropolis probability ``exp(-delta / T)``.

    Args:
        problem: move/cost interface (see :class:`AnnealProblem`).
        rng: the *only* randomness source; callers own seeding policy.
        steps: number of proposed moves (0 = no-op).
        temperature: initial temperature, in cost units (a useful
            default is a few grid pitches of wirelength).
        final_fraction: end-of-schedule temperature as a fraction of
            the initial one.
    """
    if steps <= 0:
        return 0
    accepted = 0
    cooling = math.exp(math.log(final_fraction) / max(steps, 1))
    for _ in range(steps):
        move = problem.propose(rng)
        delta = problem.apply(move)
        if delta > 0 and rng.random() >= math.exp(
            -delta / max(temperature, 1e-9)
        ):
            problem.revert(move)
        else:
            accepted += 1
        temperature *= cooling
    obs.count("optimize.anneal.moves", steps)
    obs.count("optimize.anneal.accepted", accepted)
    return accepted
