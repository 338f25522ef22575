"""Steady-state M/M/s delay computations and affine underestimators.

Everything here is a pure function of (arrival rate, service rate, server
count). Rates are per minute and waits are minutes to match the rest of the
package, although the math itself is unit-agnostic.

The delay probability is evaluated through the Erlang-B recurrence

    B(0) = 1,    B(n) = a B(n-1) / (n + a B(n-1)),    a = arrival/service,

followed by the conversion C = B / (1 - rho (1 - B)). This is algebraically
identical to the textbook factorial expression but stays in [0, 1] at every
step, so it is overflow-free for hundreds of servers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import UnstableQueueError


@dataclass(frozen=True)
class QueueModel:
    """One charger pool: Poisson arrivals into ``servers`` identical
    exponential servers drawing from a single FIFO queue."""

    arrival_rate: float
    service_rate: float
    servers: int

    def __post_init__(self) -> None:
        if self.servers < 0:
            raise ValueError("servers must be nonnegative")
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be nonnegative")
        if self.servers > 0 and self.service_rate <= 0:
            raise ValueError("service_rate must be positive when servers > 0")

    @property
    def offered_load(self) -> float:
        return self.arrival_rate / self.service_rate

    @property
    def utilization(self) -> float:
        if self.servers == 0:
            return math.inf if self.arrival_rate > 0 else 0.0
        return self.arrival_rate / (self.service_rate * self.servers)


def _erlang_b(offered_load: float, servers: int) -> float:
    b = 1.0
    for n in range(1, servers + 1):
        ab = offered_load * b
        b = ab / (n + ab)
    return b


def erlang_c(model: QueueModel) -> float:
    """Probability that every server is busy (an arrival must queue).

    A pool with zero servers is treated as carrying no delay mass, so the
    probability is defined to be 0 for ``servers == 0``.
    """
    if model.servers == 0:
        return 0.0
    rho = model.utilization
    if rho >= 1.0:
        raise UnstableQueueError(
            f"utilization {rho:.6g} >= 1 for servers={model.servers}"
        )
    if model.arrival_rate == 0.0:
        return 0.0
    b = _erlang_b(model.offered_load, model.servers)
    return b / (1.0 - rho * (1.0 - b))


def expected_wait(model: QueueModel) -> float:
    """Expected minutes in the system: queueing delay plus one service."""
    if model.servers < 1:
        raise UnstableQueueError("expected_wait needs at least one server")
    rho = model.utilization
    if rho >= 1.0:
        raise UnstableQueueError(
            f"utilization {rho:.6g} >= 1 for servers={model.servers}"
        )
    p = erlang_c(model)
    return p / (model.service_rate * model.servers * (1.0 - rho)) + 1.0 / model.service_rate


def _delay(rho: float, servers: int) -> tuple[float, float, float]:
    """The delay factor f = B / D / (1 - rho), with the Erlang-B probability
    B at offered load ``rho * servers`` and the Erlang-C denominator
    D = 1 - rho (1 - B) it is built from."""
    if servers < 1:
        raise ValueError("the delay factor needs at least one server")
    if not 0.0 < rho < 1.0:
        raise UnstableQueueError(f"utilization {rho:.6g} outside (0, 1)")
    b = _erlang_b(rho * servers, servers)
    d = 1.0 - rho * (1.0 - b)
    return b / d / (1.0 - rho), b, d


def delay_factor(rho: float, servers: int) -> float:
    """Dimensionless congestion term: delay probability over (1 - rho).

    ``expected_wait == delay_factor / (mu s) + 1 / mu``, which makes this the
    convex piece that the tangent cuts support.
    """
    return _delay(rho, servers)[0]


def tangent_cut(anchor_rho: float, servers: int) -> tuple[float, float]:
    """(intercept, slope) of the tangent line of :func:`delay_factor` at
    ``anchor_rho`` for a fixed server count.

    The slope is the exact derivative. With a = rho s, dB/da = B (s/a - 1 + B)
    gives rho dB/drho = s B D, and so

        f'(rho) / f(rho) = s (1 - rho) / rho + 1 / (1 - rho) + (1 - B) / D,

    a sum of positive terms. The delay factor is convex in rho, so the line
    lies below it on all of (0, 1) and touches it at the anchor.
    """
    f, b, d = _delay(anchor_rho, servers)
    slope = f * (servers * (1.0 - anchor_rho) / anchor_rho + 1.0 / (1.0 - anchor_rho) + (1.0 - b) / d)
    return f - slope * anchor_rho, slope
