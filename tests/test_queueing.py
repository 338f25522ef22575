import math
import random
from fractions import Fraction

import pytest

from chargeplan.errors import UnstableQueueError
from chargeplan.queueing import (
    delay_factor,
    erlang_c,
    expected_wait,
    tangent_cut,
    waits_upward,
)


def naive_delay_probability(rho: float, s: int) -> float:
    """Textbook closed form with explicit factorials; the independent oracle."""
    a = rho * s
    tail = a**s / ((1.0 - rho) * math.factorial(s))
    head = sum(a**r / math.factorial(r) for r in range(s))
    return tail / (tail + head)


class TestErlangC:
    def test_single_server_equals_utilization(self):
        for rho in [0.05 * k for k in range(1, 20)]:
            assert erlang_c(rho, 1.0, 1) == pytest.approx(rho, abs=1e-12)

    def test_two_servers_closed_form(self):
        # M/M/2: P = 2 rho^2 / (1 + rho)
        for rho in [0.05 * k for k in range(1, 20)]:
            assert erlang_c(2.0 * rho * 0.7, 0.7, 2) == pytest.approx(2 * rho**2 / (1 + rho), abs=1e-9)

    def test_matches_factorial_form(self):
        for s in range(1, 21):
            for rho in [0.1 * k for k in range(1, 10)]:
                assert erlang_c(rho * s * 2.0, 2.0, s) == pytest.approx(naive_delay_probability(rho, s), abs=1e-12)

    def test_zero_servers_convention(self):
        assert erlang_c(5.0, 0.0, 0) == 0.0

    def test_unstable_raises(self):
        with pytest.raises(UnstableQueueError):
            erlang_c(1.0, 1.0, 1)
        with pytest.raises(UnstableQueueError):
            erlang_c(2.5, 1.0, 2)

    def test_stable_at_large_server_counts(self):
        # recurrence must not overflow or lose the plot at s >= 500
        p = erlang_c(450.0, 1.0, 500)
        assert 0.0 < p < 1.0
        assert expected_wait(450.0, 1.0, 500) >= 1.0


class TestExpectedWait:
    def test_mm1_closed_form(self):
        assert expected_wait(0.5, 1.0, 1) == pytest.approx(2.0, abs=1e-12)
        for lam, mu in [(0.3, 1.0), (1.2, 2.0), (0.04, 0.05)]:
            assert expected_wait(lam, mu, 1) == pytest.approx(
                1.0 / (mu - lam), rel=1e-12
            )

    def test_mm2_example(self):
        assert expected_wait(1.0, 1.0, 2) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_light_traffic_limit_is_service_time(self):
        for s in (1, 3, 7):
            w = expected_wait(1e-12, 0.25, s)
            assert w == pytest.approx(4.0, abs=1e-9)

    def test_increasing_and_convex_in_utilization(self):
        # strictly increasing and convex in utilization for fixed s, sampled
        # where the queueing term is above float noise
        for s in (1, 2, 5, 17):
            rhos = [0.30 + 0.68 * k / 60 for k in range(61)]
            vals = [expected_wait(r * s * 1.3, 1.3, s) for r in rhos]
            diffs = [b - a for a, b in zip(vals, vals[1:])]
            assert all(d > 0 for d in diffs)
            assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(diffs, diffs[1:]))

    def test_decreasing_in_server_count(self):
        # 50 consecutive counts above the stability minimum
        lam, mu = 45.0, 1.0
        waits = [expected_wait(lam, mu, s) for s in range(46, 97)]
        assert all(b < a for a, b in zip(waits, waits[1:]))

    def test_upward_walk_matches_per_count_waits(self):
        # an off-by-one in the carried count shifts every value after the first
        rng = random.Random(31)
        for _ in range(40):
            mu = rng.uniform(0.02, 2.0)
            s0 = rng.randint(1, 300)
            load = mu * s0 * rng.uniform(0.05, 0.999)
            walk = waits_upward(load, mu, s0)
            for s in range(s0, s0 + 60):
                assert next(walk) == (s, expected_wait(load, mu, s))

    def test_upward_walk_rejects_unstable_start(self):
        with pytest.raises(UnstableQueueError):
            next(waits_upward(3.0, 1.0, 3))

    def test_marginal_improvement_shrinks_with_servers(self):
        lam, mu = 45.0, 1.0
        waits = [expected_wait(lam, mu, s) for s in range(46, 98)]
        gains = [a - b for a, b in zip(waits, waits[1:])]
        assert all(g2 < g1 for g1, g2 in zip(gains, gains[1:]))


class TestDelayFactor:
    def test_single_server_values(self):
        assert delay_factor(0.5, 1) == pytest.approx(1.0, abs=1e-12)
        assert delay_factor(0.75, 1) == pytest.approx(3.0, abs=1e-12)

    def test_two_server_value(self):
        assert delay_factor(0.5, 2) == pytest.approx((1.0 / 3.0) / 0.5, abs=1e-9)

    def test_wait_decomposition(self):
        # expected_wait == delay_factor/(mu s) + 1/mu
        rng = random.Random(4)
        for _ in range(50):
            s = rng.randint(1, 12)
            mu = rng.uniform(0.01, 2.0)
            rho = rng.uniform(0.05, 0.95)
            w = expected_wait(rho * s * mu, mu, s)
            assert w == pytest.approx(delay_factor(rho, s) / (mu * s) + 1.0 / mu, rel=1e-12)

    def test_rejects_unstable(self):
        with pytest.raises(UnstableQueueError):
            delay_factor(1.0, 3)


def exact_delay_factor(rho: Fraction, s: int) -> Fraction:
    """The delay factor in rational arithmetic, by the same Erlang-B recurrence."""
    a = rho * s
    b = Fraction(1)
    for n in range(1, s + 1):
        b = a * b / (n + a * b)
    return b / (1 - rho * (1 - b)) / (1 - rho)


class TestTangentCut:
    def test_single_server_anchor_half(self):
        intercept, slope = tangent_cut(0.5, 1)
        # analytic: slope = 1/(1-rho)^2 = 4, intercept = 1 - 4*0.5 = -1
        assert slope == pytest.approx(4.0, rel=1e-14)
        assert intercept == pytest.approx(-1.0, rel=1e-14)
        assert intercept + slope * 0.75 < delay_factor(0.75, 1)

    def test_exact_at_anchor(self):
        for s in (1, 2, 6):
            intercept, slope = tangent_cut(0.5, s)
            assert intercept + slope * 0.5 == pytest.approx(delay_factor(0.5, s), rel=1e-14)

    def test_slope_matches_exact_rational_difference_quotient(self):
        # over h = 1e-30 the forward difference of the exact delay factor
        # equals its derivative far below double precision
        h = Fraction(1, 10**30)
        for s in (1, 2, 8, 50, 120):
            for rho in (0.01, 0.05, 0.2, 0.5, 0.9, 0.99):
                r = Fraction(rho)
                exact = (exact_delay_factor(r + h, s) - exact_delay_factor(r, s)) / h
                _, slope = tangent_cut(rho, s)
                assert abs(Fraction(slope) - exact) <= exact * Fraction(1, 10**12), (s, rho)

    def test_underestimates_everywhere(self):
        rng = random.Random(11)
        for _ in range(40):
            s = rng.randint(1, 20)
            anchor = rng.uniform(0.05, 0.95)
            intercept, slope = tangent_cut(anchor, s)
            assert slope > 0.0
            for k in range(1000):
                rho = (k + 0.5) / 1000.0
                assert intercept + slope * rho <= delay_factor(rho, s) + 1e-9

    def test_rejects_bad_anchor(self):
        with pytest.raises(UnstableQueueError):
            tangent_cut(1.0, 2)
        with pytest.raises(UnstableQueueError):
            tangent_cut(0.0, 2)
