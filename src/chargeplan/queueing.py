"""Steady-state M/M/s delay computations and affine underestimators.

The one place that knows how a charger queue is priced and when it is
stable. Everything here is a pure function of (load, service rate, server
count); the load is the Poisson arrival rate routed to the pool. Rates are
per minute and waits are minutes, although the math is unit-agnostic.

Stability: s chargers at service rate mu carry a load when

    load <= capacity(mu, s, epsilon) = mu * s * (1 - epsilon),

so a load exactly at the capacity is stable and any load above it is not.
:func:`min_chargers` is the smallest such s. Every module that decides
stability compares against :func:`capacity`.

The delay probability comes from the Erlang-B recurrence

    B(0) = 1,    B(n) = a B(n-1) / (n + a B(n-1)),    a = load/service,

and C = B / (1 - rho (1 - B)): the textbook factorial expression, but in
[0, 1] at every step, so overflow-free for hundreds of servers. It steps over
float counts n, exact in a double, so no step converts an int. A wait is reached
one way: :func:`cheapest_servers` runs the recurrence once and walks upward,
carrying B(s) to B(s+1) in one step; :func:`expected_wait` is that walk capped.
"""

from __future__ import annotations

import math
from itertools import chain

from .errors import UnstableQueueError

_COUNTS = tuple(map(float, range(2048)))  # fixed: _erlang_b makes larger counts per call


def capacity(service_rate: float, servers: int, epsilon: float) -> float:
    """Largest load ``servers`` chargers carry inside the stability margin:
    mu * s * (1 - epsilon). A load equal to it is stable."""
    return service_rate * servers * (1.0 - epsilon)


def min_chargers(load: float, service_rate: float, epsilon: float) -> int:
    """Smallest server count whose :func:`capacity` is at least ``load``."""
    if load <= 0:
        return 0
    s = math.ceil(load / (service_rate * (1.0 - epsilon)))
    # float guards: the rounded quotient can land one count off either way
    if capacity(service_rate, s, epsilon) < load:
        s += 1
    elif capacity(service_rate, s - 1, epsilon) >= load:
        s -= 1
    return s


def _erlang_b(offered_load: float, servers: int) -> float:
    b = 1.0
    counts = _COUNTS[1 : servers + 1]
    for n in counts if servers < len(_COUNTS) else chain(counts, map(float, range(len(_COUNTS), servers + 1))):
        ab = offered_load * b
        b = ab / (n + ab)
    return b


def _check_stable(rho: float, servers: int) -> None:
    if rho >= 1.0:
        raise UnstableQueueError(f"utilization {rho:.6g} >= 1 for servers={servers}")


def erlang_c(load: float, service_rate: float, servers: int) -> float:
    """Probability that every server is busy (an arrival must queue).

    A pool with zero servers is treated as carrying no delay mass, so the
    probability is defined to be 0 for ``servers == 0``.
    """
    if servers == 0:
        return 0.0
    rho = load / (service_rate * servers)
    _check_stable(rho, servers)
    b = _erlang_b(load / service_rate, servers)
    return b / (1.0 - rho * (1.0 - b))


def expected_wait(load: float, service_rate: float, servers: int) -> float:
    """Expected minutes in the system: queueing delay plus one service."""
    return cheapest_servers(load, service_rate, servers, servers, 0.0, 0.0)[1]


def cheapest_servers(load: float, service_rate: float, servers: int, cap: int,
                     load_cost: float, unit_cost: float) -> tuple[int, float]:
    """``(s, wait at s)``: walks s = ``servers``, ``servers + 1``, ... to ``cap``,
    stopping before the first step whose saving ``load_cost * (wait - next
    wait)`` is at most ``unit_cost``; ``load_cost`` is load times wait cost rate.
    One Erlang-B pass, then one step per count, so each wait equals
    ``expected_wait(load, service_rate, s)`` bit for bit. Needs a stable start."""
    if servers < 1:
        raise UnstableQueueError("a charger queue needs at least one server")
    a = load / service_rate
    rho = load / (service_rate * servers)
    _check_stable(rho, servers)
    b = _erlang_b(a, servers)
    n, wait = float(servers), None
    while True:
        nxt = b / (1.0 - rho * (1.0 - b)) / (service_rate * n * (1.0 - rho)) + 1.0 / service_rate
        if wait is not None and load_cost * (wait - nxt) <= unit_cost:
            return int(n) - 1, wait
        wait = nxt
        if n >= cap:
            return int(n), wait
        n += 1.0
        ab = a * b
        b = ab / (n + ab)
        rho = load / (service_rate * n)


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
