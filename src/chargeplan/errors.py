"""Exception types shared across the package."""

from __future__ import annotations


class ChargePlanError(Exception):
    """Base class for all package-specific errors."""


class UnstableQueueError(ChargePlanError):
    """Routed load breaks the stability rule of :mod:`chargeplan.queueing`."""


class UnassignedDemandError(ChargePlanError):
    """A demand point is missing from a solution's assignment set."""


class InvalidSOCError(ChargePlanError):
    """State-of-charge bounds are reversed, equal, or outside [0, 100]."""


class RangeTooShortError(ChargePlanError):
    """A single movement exhausts the driving range, so no terminal stop
    precedes the depletion point and no charge can be scheduled."""


class InfeasibleDemandError(ChargePlanError):
    """One or more demand points have no reachable candidate station."""

    def __init__(self, demand_ids):
        self.demand_ids = sorted(demand_ids)
        super().__init__(
            "no reachable candidate station for demand points %s" % self.demand_ids
        )


class InvalidKError(ChargePlanError):
    """Requested cluster count is outside [1, number of points]."""


class InfeasibleError(ChargePlanError):
    """No feasible solution exists for the requested configuration."""


class SearchGaveUpError(InfeasibleError):
    """A heuristic search (SA or GA) stopped without a deployment it could
    size stably. That proves nothing about feasibility; it is an
    :class:`InfeasibleError` so that callers which only need some
    deployment treat both alike."""


class UncoveredDemandError(ChargePlanError):
    """An activation set leaves some demand point without a reachable station."""


class InstanceTooLargeError(ChargePlanError):
    """Exhaustive enumeration would exceed the configured leaf budget."""


class TimeLimitError(ChargePlanError):
    """A search ran out of time before it found any feasible deployment, so
    nothing is known about feasibility."""


class ParseError(ChargePlanError):
    """Malformed input file."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        where = ""
        if path is not None:
            where = f" [{path}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message + where)
