"""Great-circle distance helpers (WGS84 degrees in, kilometres/minutes out)."""

from __future__ import annotations

import math

EARTH_RADIUS_KM = 6371.0088


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two points in kilometres."""
    phi1 = math.radians(lat1)
    phi2 = math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(a))


def travel_minutes(lat1: float, lon1: float, lat2: float, lon2: float, speed_kmh: float) -> float:
    """Door-to-door travel time at a constant mean speed."""
    if not 0 < speed_kmh < math.inf:
        raise ValueError(f"speed_kmh must be positive and finite, got {speed_kmh!r}")
    return haversine_km(lat1, lon1, lat2, lon2) / speed_kmh * 60.0
