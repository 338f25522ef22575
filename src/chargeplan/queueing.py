"""Steady-state M/M/s delay computations and affine underestimators.

Everything here is a pure function of (arrival rate, service rate, server
count). Rates are per minute and waits are minutes to match the rest of the
package, although the math itself is unit-agnostic.

The delay probability is evaluated through the Erlang-B recurrence

    B(0) = 1,    B(n) = a B(n-1) / (n + a B(n-1)),    a = arrival/service,

followed by the conversion C = B / (1 - rho (1 - B)). This is algebraically
identical to the textbook factorial expression but stays in [0, 1] at every
step, so it is overflow-free for hundreds of servers.

Charger sizing walks the server count upward from the stability minimum.
:func:`waits_upward` runs the recurrence once to its starting count and then
carries B(s) to B(s+1) with one more step of it, so sizing a pair that ends
at s chargers costs O(s) steps, not O(s^2). The conversion to C and to the
expected wait is written once (``_erlang_c``, ``_wait``) and shared by
:func:`expected_wait` and the walk, so both give the same bits for a count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

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


def _check_stable(rho: float, servers: int) -> None:
    if rho >= 1.0:
        raise UnstableQueueError(f"utilization {rho:.6g} >= 1 for servers={servers}")


def _erlang_c(rho: float, b: float) -> float:
    """Delay probability from the Erlang-B probability ``b`` at utilization ``rho``."""
    return b / (1.0 - rho * (1.0 - b))


def _wait(c: float, rho: float, service_rate: float, servers: int) -> float:
    """Expected minutes in the system from the delay probability ``c``:
    queueing delay plus one service."""
    return c / (service_rate * servers * (1.0 - rho)) + 1.0 / service_rate


def erlang_c(model: QueueModel) -> float:
    """Probability that every server is busy (an arrival must queue).

    A pool with zero servers is treated as carrying no delay mass, so the
    probability is defined to be 0 for ``servers == 0``.
    """
    if model.servers == 0:
        return 0.0
    rho = model.utilization
    _check_stable(rho, model.servers)
    if model.arrival_rate == 0.0:
        return 0.0
    return _erlang_c(rho, _erlang_b(model.offered_load, model.servers))


def expected_wait(model: QueueModel) -> float:
    """Expected minutes in the system: queueing delay plus one service."""
    if model.servers < 1:
        raise UnstableQueueError("expected_wait needs at least one server")
    return _wait(erlang_c(model), model.utilization, model.service_rate, model.servers)


def waits_upward(load: float, service_rate: float, servers: int) -> Iterator[tuple[int, float]]:
    """Yield ``(s, expected wait)`` for s = ``servers``, ``servers + 1``, ...

    Each wait equals ``expected_wait(QueueModel(load, service_rate, s))`` bit
    for bit. B at the starting count comes from one Erlang-B pass; every later
    count costs one step of the recurrence. Needs ``load > 0`` and a stable
    starting count of at least one server.
    """
    a = load / service_rate
    rho = load / (service_rate * servers)
    _check_stable(rho, servers)
    b = _erlang_b(a, servers)
    while True:
        yield servers, _wait(_erlang_c(rho, b), rho, service_rate, servers)
        servers += 1
        ab = a * b
        b = ab / (servers + ab)
        rho = load / (service_rate * servers)


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
