import random

import pytest

from chargeplan.demand import (
    BlockSchedule,
    Trip,
    aggregate_demand,
    build_coverage,
    cluster_demand_points,
    cluster_stations,
    read_blocks_csv,
    read_stations_csv,
    segment_block,
)
from chargeplan.errors import (
    InfeasibleDemandError,
    InvalidKError,
    ParseError,
    RangeTooShortError,
)
from chargeplan.geo import haversine_km
from chargeplan.model import CandidateStation, DemandPoint

STOPS = {
    "G0": (41.85, -87.75), "A": (41.88, -87.70), "B": (41.90, -87.66),
    "C": (41.92, -87.63), "D": (41.87, -87.60), "E": (41.83, -87.62),
    "F": (41.80, -87.66), "G": (41.78, -87.70), "H": (41.81, -87.74),
}


def trip(tid, o, d, start, end, kind="service"):
    return Trip(
        id=tid, origin_stop=o, dest_stop=d, origin=STOPS[o], dest=STOPS[d],
        start=start, end=end, kind=kind,
    )


def reference_block() -> BlockSchedule:
    """Day-long block: six service hours deplete mid-afternoon, forcing a
    charge at the third service trip's destination (16:00), and again just
    before midnight on the closing deadhead."""
    return BlockSchedule(id="B1", garage_id="G0", trips=(
        trip("t0", "G0", "A", 340, 360, "deadhead"),
        trip("t1", "A", "B", 360, 480),
        trip("l1", "B", "B", 480, 570, "layover"),
        trip("t2", "B", "C", 570, 660),
        trip("d2", "C", "D", 660, 690, "deadhead"),
        trip("l2", "D", "D", 690, 900, "layover"),
        trip("t3", "D", "E", 900, 960),
        trip("t4", "E", "F", 960, 1080),
        trip("l3", "F", "F", 1080, 1140, "layover"),
        trip("t5", "F", "G", 1140, 1260),
        trip("l4", "G", "G", 1260, 1290, "layover"),
        trip("t6", "G", "H", 1290, 1400),
        trip("l5", "H", "H", 1400, 1425, "layover"),
        trip("d3", "H", "G0", 1425, 1480, "deadhead"),
    ))


class TestSegmentBlock:
    def test_reference_block_two_events(self):
        events = segment_block(reference_block(), 360.0)
        assert [(e.stop_id, e.time) for e in events] == [("E", 960.0), ("H", 1425.0)]

    def test_under_range_block_has_no_events(self):
        blk = BlockSchedule(id="B2", garage_id="G0", trips=(
            trip("u1", "A", "B", 0, 60), trip("u2", "B", "C", 60, 120)))
        assert segment_block(blk, 200.0) == []

    def test_back_to_back_pair_charges_between(self):
        blk = BlockSchedule(id="B2", garage_id="G0", trips=(
            trip("u1", "A", "B", 0, 60), trip("u2", "B", "C", 60, 120)))
        events = segment_block(blk, 100.0)  # each trip is 0.6 of the range
        assert [(e.stop_id, e.time) for e in events] == [("B", 60.0)]

    def test_single_overlong_trip_raises(self):
        blk = BlockSchedule(id="B3", garage_id="G0", trips=(trip("v1", "A", "B", 0, 300),))
        with pytest.raises(RangeTooShortError):
            segment_block(blk, 200.0)

    def test_overlong_trip_after_progress_raises(self):
        blk = BlockSchedule(id="B4", garage_id="G0", trips=(
            trip("v1", "A", "B", 0, 60), trip("v2", "B", "C", 60, 400)))
        with pytest.raises(RangeTooShortError):
            segment_block(blk, 200.0)

    def test_layover_consumes_no_range(self):
        blk = BlockSchedule(id="B5", garage_id="G0", trips=(
            trip("w1", "A", "B", 0, 90),
            trip("lw", "B", "B", 90, 600, "layover"),
            trip("w2", "B", "C", 600, 690),
        ))
        # driving totals 180 < 200: the long layover must not trigger anything
        assert segment_block(blk, 200.0) == []

    def test_events_ordered_and_spaced_within_range(self):
        rng = random.Random(5)
        names = list(STOPS)
        for _ in range(50):
            t, trips, prev_stop = 300.0, [], "G0"
            for n in range(rng.randint(3, 12)):
                kind = rng.choice(["service", "service", "deadhead", "layover"])
                nxt = prev_stop if kind == "layover" else rng.choice(names)
                dur = rng.uniform(10, 120) if kind != "layover" else rng.uniform(5, 60)
                trips.append(trip(f"r{n}", prev_stop, nxt, t, t + dur, kind))
                t += dur
                prev_stop = nxt
            blk = BlockSchedule(id="R", garage_id="G0", trips=tuple(trips))
            rng_min = rng.uniform(140, 400)
            try:
                events = segment_block(blk, rng_min)
            except RangeTooShortError:
                continue
            times = [e.time for e in events]
            assert times == sorted(times)
            assert len(set(times)) == len(times)
            # driving between consecutive charge points never exceeds the range
            marks = [blk.trips[0].start] + times
            for lo, hi in zip(marks, marks[1:]):
                drove = sum(
                    max(0.0, min(tr.end, hi) - max(tr.start, lo))
                    for tr in blk.trips
                    if tr.consumes_range
                )
                assert drove <= rng_min + 1e-6

    def test_block_ordering_validated(self):
        with pytest.raises(ValueError):
            BlockSchedule(id="bad", garage_id="G0", trips=(
                trip("x1", "A", "B", 100, 200), trip("x2", "B", "C", 150, 250)))


class TestAggregateDemand:
    def test_rate_is_count_over_horizon(self):
        events = segment_block(reference_block(), 360.0)
        pts = aggregate_demand(events, 1440.0)
        assert len(pts) == 2
        assert all(p.rate == pytest.approx(1.0 / 1440.0) for p in pts)

    def test_three_events_one_stop(self):
        ev = segment_block(reference_block(), 360.0)[0]
        pts = aggregate_demand([ev, ev, ev], 1440.0)
        assert len(pts) == 1
        assert pts[0].rate == pytest.approx(3.0 / 1440.0, abs=1e-15)

    def test_empty_events(self):
        assert aggregate_demand([], 1440.0) == []

    def test_two_stops_rates(self):
        e1, e2 = segment_block(reference_block(), 360.0)
        pts = aggregate_demand([e1] * 10 + [e2] * 5, 1440.0)
        rates = sorted(p.rate for p in pts)
        assert rates[0] == pytest.approx(5 / 1440.0)
        assert rates[1] == pytest.approx(10 / 1440.0)


class TestBuildCoverage:
    def station(self, j, lat, lon):
        return CandidateStation(id=j, lat=lat, lon=lon, fixed_cost_rate=1.0, max_chargers={0: 4})

    def test_colocated_pair_reachable(self):
        d = DemandPoint(id=0, lat=41.9, lon=-87.7, rate=0.01)
        s = self.station(0, 41.9, -87.7)
        dps, sts, travel = build_coverage([d], [s], 15.0, 30.0)
        assert travel[(0, 0)] == 0.0
        assert dps[0].reachable == (0,)

    def test_cutoff_excludes_distant_station(self):
        d = DemandPoint(id=0, lat=41.9, lon=-87.7, rate=0.01)
        # ~10 km north: 20 min at 30 km/h, beyond a 15 min cutoff
        far = self.station(0, 41.9 + 10.0 / 111.0, -87.7)
        near = self.station(1, 41.9, -87.7)
        dps, sts, travel = build_coverage([d], [far, near], 15.0, 30.0)
        assert (0, 0) not in travel and (0, 1) in travel
        km = haversine_km(41.9, -87.7, 41.9 + 10.0 / 111.0, -87.7)
        assert km / 30.0 * 60.0 > 15.0

    def test_inverse_image_identity(self):
        rng = random.Random(2)
        dps = [DemandPoint(id=i, lat=rng.uniform(41.7, 42.0), lon=rng.uniform(-87.9, -87.6), rate=0.01) for i in range(8)]
        sts = [self.station(j, rng.uniform(41.7, 42.0), rng.uniform(-87.9, -87.6)) for j in range(6)]
        dps, sts, travel = build_coverage(dps, sts, 40.0, 30.0)
        for d in dps:
            for j in d.reachable:
                assert d.id in next(s for s in sts if s.id == j).served
        for s in sts:
            for i in s.served:
                assert s.id in next(d for d in dps if d.id == i).reachable
        assert set(travel) == {(d.id, j) for d in dps for j in d.reachable}

    def test_uncovered_demand_raises_with_ids(self):
        d0 = DemandPoint(id=0, lat=41.9, lon=-87.7, rate=0.01)
        d1 = DemandPoint(id=1, lat=45.0, lon=-95.0, rate=0.01)  # far away
        s = self.station(0, 41.9, -87.7)
        with pytest.raises(InfeasibleDemandError) as exc:
            build_coverage([d0, d1], [s], 15.0, 30.0)
        assert exc.value.demand_ids == [1]


class TestClustering:
    def points(self, coords, rates=None):
        rates = rates or [0.01] * len(coords)
        return [
            DemandPoint(id=i, lat=lat, lon=lon, rate=r)
            for i, ((lat, lon), r) in enumerate(zip(coords, rates))
        ]

    def test_identity_when_k_equals_n(self):
        pts = self.points([(41.9, -87.7), (41.8, -87.6), (41.7, -87.8)])
        assert cluster_demand_points(pts, 3, seed=1) == pts

    def test_single_cluster_sums_rates(self):
        pts = self.points([(41.9, -87.7), (41.8, -87.6), (41.7, -87.8)], [0.01, 0.02, 0.04])
        (c,) = cluster_demand_points(pts, 1, seed=1)
        assert c.rate == pytest.approx(0.07, abs=1e-15)

    def test_square_corners_split_into_edge_pairs(self):
        eps = 0.01
        pts = self.points([(41.0, -87.0), (41.0, -87.0 + eps), (41.0 + eps, -87.0), (41.0 + eps, -87.0 + eps)])
        clusters = cluster_demand_points(pts, 2, seed=3)
        assert sorted(round(c.rate, 9) for c in clusters) == [0.02, 0.02]
        # each centroid sits at the midpoint of one square edge
        for c in clusters:
            on_lat_edge = any(abs(c.lat - v) < 1e-9 for v in (41.0, 41.0 + eps)) and abs(c.lon - (-87.0 + eps / 2)) < 1e-6
            on_lon_edge = any(abs(c.lon - v) < 1e-9 for v in (-87.0, -87.0 + eps)) and abs(c.lat - (41.0 + eps / 2)) < 1e-6
            assert on_lat_edge or on_lon_edge

    def test_total_rate_conserved(self):
        rng = random.Random(9)
        for trial in range(10):
            n = rng.randint(3, 40)
            pts = self.points(
                [(rng.uniform(41.6, 42.1), rng.uniform(-88.0, -87.5)) for _ in range(n)],
                [rng.uniform(0.001, 0.1) for _ in range(n)],
            )
            k = rng.randint(1, n)
            clusters = cluster_demand_points(pts, k, seed=trial)
            assert len(clusters) == k
            assert sum(c.rate for c in clusters) == pytest.approx(sum(p.rate for p in pts), abs=1e-12)

    def test_station_clusters_keep_min_cost_max_caps(self):
        sts = [
            CandidateStation(id=0, lat=41.90, lon=-87.70, fixed_cost_rate=2.0, max_chargers={0: 2, 1: 5}),
            CandidateStation(id=1, lat=41.901, lon=-87.701, fixed_cost_rate=1.0, max_chargers={0: 4, 1: 1}, is_garage=True),
            CandidateStation(id=2, lat=41.70, lon=-87.60, fixed_cost_rate=3.0, max_chargers={0: 1}),
        ]
        clusters = cluster_stations(sts, 2, seed=0)
        merged = next(c for c in clusters if c.is_garage)
        assert merged.fixed_cost_rate == 1.0
        assert merged.max_chargers == {0: 4, 1: 5}

    def test_bad_k_rejected(self):
        pts = self.points([(41.9, -87.7)])
        with pytest.raises(InvalidKError):
            cluster_demand_points(pts, 0, seed=1)
        with pytest.raises(InvalidKError):
            cluster_demand_points(pts, 2, seed=1)

    def test_seeded_determinism(self):
        rng = random.Random(13)
        pts = self.points(
            [(rng.uniform(41.6, 42.1), rng.uniform(-88.0, -87.5)) for _ in range(25)],
            [rng.uniform(0.001, 0.1) for _ in range(25)],
        )
        a = cluster_demand_points(pts, 6, seed=42)
        b = cluster_demand_points(pts, 6, seed=42)
        assert a == b


class TestCSVReaders:
    def test_blocks_round_trip(self, data_dir):
        blocks = read_blocks_csv(data_dir / "sample_blocks.csv")
        assert len(blocks) == 1
        blk = blocks[0]
        assert blk.id == "B1" and blk.garage_id == "G0"
        assert len(blk.trips) == 14
        events = segment_block(blk, 360.0)
        assert [(e.stop_id, e.time) for e in events] == [("E", 960.0), ("H", 1425.0)]

    def test_stations_cost_amortization(self, data_dir):
        sts = read_stations_csv(data_dir / "sample_stations.csv", max_chargers={0: 8, 1: 8})
        assert len(sts) == 4
        garage = next(s for s in sts if s.is_garage)
        assert garage.fixed_cost_rate == pytest.approx(208000.0 / (30 * 525960.0), rel=1e-12)
        assert all(s.agency == "cta" for s in sts)

    def test_missing_columns_raise(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("block_id,garage_id\nB1,G0\n")
        with pytest.raises(ParseError):
            read_blocks_csv(bad)

    @pytest.mark.parametrize("column", ["start_min", "end_min"])
    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_trip_time_reports_line(self, data_dir, tmp_path, column, bad):
        # a NaN end fails the end-before-start check and would silently drop
        # the block's demand
        lines = (data_dir / "sample_blocks.csv").read_text().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        row[header.index(column)] = bad
        path = tmp_path / "blocks.csv"
        path.write_text("\n".join([lines[0], ",".join(row), *lines[2:]]) + "\n")
        with pytest.raises(ParseError, match="start and end must be finite") as exc:
            read_blocks_csv(path)
        assert exc.value.line == 2
        with pytest.raises(ValueError, match="must be finite"):
            trip("t", "A", "B", 360, float(bad))

    def test_bad_row_reports_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        header = "block_id,garage_id,trip_id,kind,origin_stop,dest_stop,origin_lat,origin_lon,dest_lat,dest_lon,start_min,end_min"
        bad.write_text(header + "\nB1,G0,t1,service,A,B,x,-87.7,41.9,-87.66,0,60\n")
        with pytest.raises(ParseError) as exc:
            read_blocks_csv(bad)
        assert exc.value.line == 2
